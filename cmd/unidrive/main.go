// Command unidrive is the UniDrive client CLI: it synchronizes a
// local folder with a multi-cloud of CCS endpoints reachable over the
// RESTful Web API (e.g. cmd/unicloud instances, or any service
// wrapped in that API).
//
// Usage:
//
//	unidrive -folder ./sync -device laptop -passphrase secret \
//	         -clouds http://localhost:8081,http://localhost:8082,http://localhost:8083 \
//	         [-kr 2] [-ks 2] [-once] [-interval 30s] [-watch=false] \
//	         [-debounce 500ms] [-rescan-interval 5m]
//
// Without -once it runs as a daemon. On platforms with filesystem
// notifications (and unless -watch=false) the daemon is event-driven:
// local edits are detected by a watcher, debounced for -debounce, and
// committed with an O(changes) pass; the clouds are polled for peer
// commits every -interval via a cheap version-stamp check; and a full
// folder rescan every -rescan-interval catches anything a lossy
// watcher dropped. Without watch support it falls back to a full scan
// every -interval (the paper's periodic design).
//
// The `serve` subcommand instead hosts MANY tenants (user × folder
// pairs) in one process over a shared per-cloud connection budget:
//
//	unidrive serve -config tenants.json [-listen :7070]
//
// The `scrub` subcommand runs one anti-entropy cycle: it verifies
// every committed block copy's existence and CRC-32C checksum against
// the metadata, and with -repair re-encodes and re-uploads damaged
// copies from the surviving blocks:
//
//	unidrive scrub -folder ./sync -passphrase secret \
//	         -clouds http://localhost:8081,... [-repair] [-rate 50]
//
// The `status` subcommand prints a read-only capacity and placement
// view: per-cloud block counts and quota state, plus any segments
// committed THIN (under-replicated because clouds were out of quota
// when they were written):
//
//	unidrive status -folder ./sync -passphrase secret \
//	         -clouds http://localhost:8081,... [-v]
//
// See cmd/unidrive/serve.go for the config format and README.md for a
// quick start.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"unidrive/internal/capacity"
	"unidrive/internal/core"
	"unidrive/internal/health"
)

func main() {
	cmd, args := run, os.Args[1:]
	if len(args) > 0 {
		if sub, ok := map[string]func([]string) error{
			"serve": runServe, "scrub": runScrub, "status": runStatus,
		}[args[0]]; ok {
			cmd, args = sub, args[1:]
		}
	}
	if err := cmd(args); err != nil {
		fmt.Fprintln(os.Stderr, "unidrive:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("unidrive", flag.ExitOnError)
	dev := addDeviceFlags(fs)
	k := fs.Int("k", 3, "data blocks per segment")
	kr := fs.Int("kr", 0, "min reachable clouds that must recover data (default N-2, >=1)")
	ks := fs.Int("ks", 2, "min breached clouds that may reconstruct data")
	once := fs.Bool("once", false, "sync once and exit")
	interval := fs.Duration("interval", 30*time.Second, "remote poll (and polling-mode sync) interval in daemon mode")
	watch := fs.Bool("watch", true, "use filesystem notifications when available (event-driven sync)")
	debounce := fs.Duration("debounce", 0, "settle window for coalescing watcher events (default: min(500ms, interval/4))")
	rescanInterval := fs.Duration("rescan-interval", 0, "safety-net full-rescan period in watch mode (default: 10x interval)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	printReport := func(rep core.SyncReport) {
		fmt.Printf("sync v%d: %d local changes committed, %d cloud changes applied",
			rep.Version, rep.LocalChanges, rep.CloudChanges)
		if rep.Upload.SegmentsUploaded > 0 {
			fmt.Printf(", %d segments (%d bytes) uploaded, available in %v",
				rep.Upload.SegmentsUploaded, rep.Upload.BytesUploaded, rep.AvailableDuration.Round(time.Millisecond))
		}
		for _, c := range rep.Conflicts {
			fmt.Printf("\nconflict retained as %q", c)
		}
		fmt.Println()
	}
	d, err := dev.open(ctx, core.Config{
		K:                  *k,
		Kr:                 *kr,
		Ks:                 *ks,
		SyncInterval:       *interval,
		DisableWatch:       !*watch,
		DebounceWindow:     *debounce,
		FullRescanInterval: *rescanInterval,
		OnPass:             printReport,
	})
	if err != nil {
		return err
	}
	client, folder := d.client, d.folder
	if restored, reason, err := client.LoadState(); err != nil {
		return err
	} else if restored {
		fmt.Println("restored previous sync state")
	} else if reason != core.ColdStartFresh {
		fmt.Printf("cold start (%s): rescanning the whole folder\n", reason)
	}
	if rec, err := client.Recover(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "unidrive: crash recovery:", err)
	} else if rec.IntentsReplayed > 0 {
		fmt.Printf("crash recovery: %d intents replayed, %d blocks resumed, %d orphans reclaimed, %d paths preserved\n",
			rec.IntentsReplayed, rec.BlocksResumed, rec.OrphansReclaimed, rec.PathsSuppressed)
	}
	fmt.Printf("unidrive: device %q, folder %s, %d clouds, params %+v\n",
		*dev.device, folder.Root(), len(d.clouds), client.Params())

	if *once {
		rep, err := client.SyncOnce(ctx)
		if err != nil {
			return err
		}
		printReport(rep)
		if rep.LocalChanges > 0 {
			// The pass returns at its commit, and its upload runs on to
			// reliability in the hold's tail. The blocks it lands after the
			// commit are recorded by the device's next lock hold; without
			// it the next start would reclaim them and leave the segments
			// thin. A poll takes them only from an upload that has ended.
			client.JoinTail()
			if rep, err = client.SyncRemote(ctx); err != nil {
				return err
			}
			if rep.CloudChanges > 0 {
				printReport(rep)
			}
			if rep.PlacementsRecorded > 0 {
				fmt.Printf("sync v%d: final placements of %d segments recorded\n", rep.Version, rep.PlacementsRecorded)
			}
		}
		// A pass returns once its commit is on a quorum; the lock release
		// and the released blocks' deletes finish in the hold's tail,
		// which SaveState joins before the process exits.
		return client.SaveState()
	}

	if *watch {
		fmt.Printf("watching %s: event-driven when supported, remote poll every %v (ctrl-c to stop)\n",
			folder.Root(), *interval)
	} else {
		fmt.Printf("polling %s every %v (ctrl-c to stop)\n", folder.Root(), *interval)
	}
	// RunLoop owns the cadence from here: an immediate first full pass,
	// then watcher-driven dirty passes, remote stamp polls, and the
	// safety-net rescans. OnPass (printReport) narrates passes that
	// moved data; errors surface here with breaker context.
	client.RunLoop(ctx, func(err error) {
		fmt.Fprintln(os.Stderr, "unidrive: sync:", err)
		for _, c := range d.clouds {
			if b := d.health.Breaker(c.Name()); b.State() != health.Closed {
				fmt.Fprintf(os.Stderr, "unidrive: cloud %s breaker %v\n", c.Name(), b.State())
			}
			if st := d.capacity.State(c.Name()); st != capacity.OK {
				fmt.Fprintf(os.Stderr, "unidrive: cloud %s capacity %v (%d quota rejections)\n",
					c.Name(), st, d.capacity.Rejections(c.Name()))
			}
		}
	})
	fmt.Println("unidrive: stopped")
	return nil
}

func hostnameDefault() string {
	if h, err := os.Hostname(); err == nil && h != "" {
		return h
	}
	return "device"
}
