package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"strings"
	"time"

	"unidrive/internal/capacity"
	"unidrive/internal/cloud"
	"unidrive/internal/cloudhttp"
	"unidrive/internal/core"
	"unidrive/internal/health"
	"unidrive/internal/localfs"
	"unidrive/internal/obs"
	"unidrive/internal/vclock"
)

// deviceFlags are the flags naming one device of a sync folder, shared
// by every single-device subcommand.
type deviceFlags struct {
	folder, device, passphrase, clouds *string
}

func addDeviceFlags(fs *flag.FlagSet) deviceFlags {
	return deviceFlags{
		folder:     fs.String("folder", "./unidrive-sync", "local sync folder"),
		device:     fs.String("device", hostnameDefault(), "unique device name"),
		passphrase: fs.String("passphrase", "", "metadata encryption passphrase (required)"),
		clouds:     fs.String("clouds", "", "comma-separated base URLs of cloud endpoints (required)"),
	}
}

// device is one opened device: its client, the clouds it was dialed
// to, and the per-cloud trackers the client consults.
type device struct {
	client   *core.Client
	clouds   []cloud.Interface
	folder   *localfs.Dir
	health   *health.Tracker
	capacity *capacity.Tracker
}

// open checks the flags, dials every cloud and builds the device's
// client from cfg, given the flags' identity, one metrics registry and
// both trackers on it.
func (f deviceFlags) open(ctx context.Context, cfg core.Config) (*device, error) {
	if *f.passphrase == "" {
		return nil, fmt.Errorf("-passphrase is required")
	}
	if *f.clouds == "" {
		return nil, fmt.Errorf("-clouds is required")
	}
	clouds, err := dialClouds(ctx, strings.Split(*f.clouds, ","))
	if err != nil {
		return nil, err
	}
	folder, err := localfs.NewDir(*f.folder)
	if err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	d := &device{
		clouds:   clouds,
		folder:   folder,
		health:   health.NewDefaultTracker(vclock.Real{}, time.Now().UnixNano(), reg),
		capacity: capacity.NewDefaultTracker(vclock.Real{}, reg),
	}
	cfg.Device, cfg.Passphrase = *f.device, *f.passphrase
	cfg.Obs, cfg.Health, cfg.Capacity = reg, d.health, d.capacity
	if d.client, err = core.New(clouds, folder, cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// dialClouds connects to every endpoint; the client refuses to start
// without all of them.
func dialClouds(ctx context.Context, urls []string) ([]cloud.Interface, error) {
	var clouds []cloud.Interface
	for _, u := range urls {
		u = strings.TrimSpace(u)
		c, err := cloudhttp.Dial(ctx, u, http.DefaultClient)
		if err != nil {
			return nil, fmt.Errorf("dialing %s: %w", u, err)
		}
		fmt.Printf("connected to %s (%s)\n", c.Name(), u)
		clouds = append(clouds, c)
	}
	return clouds, nil
}
