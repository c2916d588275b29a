package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"unidrive/internal/core"
	"unidrive/internal/daemon"
	"unidrive/internal/localfs"
	"unidrive/internal/obs"
)

// serveConfig is the JSON document given to `unidrive serve -config`.
type serveConfig struct {
	// Listen is the debug/metrics HTTP address (default ":7070";
	// overridable with -listen).
	Listen string `json:"listen"`
	// ConnsPerCloud is the PROCESS-wide per-cloud connection budget
	// shared by all tenants (default 5).
	ConnsPerCloud int `json:"connsPerCloud"`
	// ScrubInterval, as a Go duration string ("6h"), schedules a
	// low-priority anti-entropy scrub cycle per tenant at this period;
	// empty disables scheduled scrubbing.
	ScrubInterval string `json:"scrubInterval"`
	// ScrubRepair lets scheduled scrub cycles re-upload damaged blocks
	// and commit refreshed placements, not just report them.
	ScrubRepair bool `json:"scrubRepair"`
	// Tenants are the hosted (user, folder) pairs.
	Tenants []serveTenant `json:"tenants"`
}

// serveTenant configures one hosted tenant.
//
// Each tenant needs its OWN cloud accounts: a tenant's encrypted
// metadata lives at fixed paths in its accounts, so two tenants
// pointed at the same endpoint collide (exactly as two users sharing
// one Dropbox login would). Give tenants distinct endpoints whose
// Name() is the shared provider ("alpha", "beta", ...) — the fair
// scheduler budgets connections by provider name, so same-named
// clouds across tenants share one egress budget while their storage
// stays disjoint.
type serveTenant struct {
	ID         string   `json:"id"`
	Weight     float64  `json:"weight"`
	Device     string   `json:"device"`
	Passphrase string   `json:"passphrase"`
	Folder     string   `json:"folder"`
	Clouds     []string `json:"clouds"`
	K          int      `json:"k"`
	Kr         int      `json:"kr"`
	Ks         int      `json:"ks"`
	// Interval is the remote-poll (and polling-mode sync) period as a
	// Go duration string, e.g. "30s".
	Interval string `json:"interval"`
	// Watch uses filesystem notifications when available (default
	// true; set false to force polling).
	Watch *bool `json:"watch"`
}

// runServe is the `unidrive serve` subcommand: one process hosting
// many tenants over one shared connection budget, with per-tenant
// breakers and metrics rolled up at /debug/unidrive.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	configPath := fs.String("config", "", "tenant configuration JSON (required)")
	listen := fs.String("listen", "", "debug endpoint address (overrides the config's listen)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *configPath == "" {
		return fmt.Errorf("serve: -config is required")
	}
	blob, err := os.ReadFile(*configPath)
	if err != nil {
		return err
	}
	var cfg serveConfig
	if err := json.Unmarshal(blob, &cfg); err != nil {
		return fmt.Errorf("serve: parsing %s: %w", *configPath, err)
	}
	if len(cfg.Tenants) == 0 {
		return fmt.Errorf("serve: no tenants in %s", *configPath)
	}
	addr := cfg.Listen
	if *listen != "" {
		addr = *listen
	}
	if addr == "" {
		addr = ":7070"
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var scrubEvery time.Duration
	if cfg.ScrubInterval != "" {
		if scrubEvery, err = time.ParseDuration(cfg.ScrubInterval); err != nil {
			return fmt.Errorf("serve: bad scrubInterval: %w", err)
		}
	}
	fleetReg := obs.NewRegistry()
	d := daemon.New(daemon.Config{
		ConnsPerCloud: cfg.ConnsPerCloud,
		Obs:           fleetReg,
		HealthSeed:    time.Now().UnixNano(),
		ScrubInterval: scrubEvery,
		ScrubRepair:   cfg.ScrubRepair,
	})

	for _, tc := range cfg.Tenants {
		if tc.ID == "" || tc.Passphrase == "" || tc.Folder == "" || len(tc.Clouds) == 0 {
			return fmt.Errorf("serve: tenant needs id, passphrase, folder, and clouds (got %+v)", tc.ID)
		}
		clouds, err := dialClouds(ctx, tc.Clouds)
		if err != nil {
			return fmt.Errorf("serve: tenant %s: %w", tc.ID, err)
		}
		folder, err := localfs.NewDir(tc.Folder)
		if err != nil {
			return fmt.Errorf("serve: tenant %s: %w", tc.ID, err)
		}
		interval := 30 * time.Second
		if tc.Interval != "" {
			if interval, err = time.ParseDuration(tc.Interval); err != nil {
				return fmt.Errorf("serve: tenant %s: bad interval: %w", tc.ID, err)
			}
		}
		cc := core.Config{
			Device:       tc.Device,
			Passphrase:   tc.Passphrase,
			K:            tc.K,
			Kr:           tc.Kr,
			Ks:           tc.Ks,
			SyncInterval: interval,
		}
		if tc.Watch != nil && !*tc.Watch {
			cc.DisableWatch = true
		}
		tn, err := d.AddTenant(daemon.TenantConfig{
			ID:     tc.ID,
			Weight: tc.Weight,
			Clouds: clouds,
			Folder: folder,
			Core:   cc,
		})
		if err != nil {
			return err
		}
		// Same cold-start path as single-tenant mode: restore the
		// checkpoint, replay crash intents.
		if restored, reason, err := tn.Client().LoadState(); err != nil {
			return fmt.Errorf("tenant %s: %w", tc.ID, err)
		} else if restored {
			fmt.Printf("serve: tenant %s: restored previous sync state\n", tc.ID)
		} else if reason != core.ColdStartFresh {
			fmt.Printf("serve: tenant %s: cold start (%s), rescanning\n", tc.ID, reason)
		}
		if rec, err := tn.Client().Recover(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "serve: tenant %s: crash recovery: %v\n", tc.ID, err)
		} else if rec.IntentsReplayed > 0 {
			fmt.Printf("serve: tenant %s: crash recovery replayed %d intents\n", tc.ID, rec.IntentsReplayed)
		}
		fmt.Printf("serve: tenant %s: folder %s, %d clouds, weight %.1f\n",
			tc.ID, folder.Root(), len(clouds), max(tc.Weight, 1))
	}

	mux := http.NewServeMux()
	mux.Handle("/debug/unidrive", d)
	srv := &http.Server{Addr: addr, Handler: mux}
	go func() {
		if err := srv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "serve: debug endpoint:", err)
		}
	}()
	defer srv.Close()

	debugAddr := addr
	if strings.HasPrefix(debugAddr, ":") {
		debugAddr = "localhost" + debugAddr
	}
	fmt.Printf("serve: hosting %d tenants, %d conns/cloud shared, debug at http://%s/debug/unidrive (ctrl-c to stop)\n",
		len(cfg.Tenants), d.Fair().Conns(), debugAddr)
	d.Run(ctx, func(id string, err error) {
		fmt.Fprintf(os.Stderr, "serve: tenant %s: sync: %v\n", id, err)
	})
	fmt.Println("serve: stopped")
	return nil
}
