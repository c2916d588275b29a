package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"unidrive/internal/core"
)

// runScrub implements `unidrive scrub`: one anti-entropy cycle over
// the committed metadata, verifying every block copy's existence and
// checksum, with an optional repair pass restoring full redundancy.
func runScrub(args []string) error {
	fs := flag.NewFlagSet("scrub", flag.ExitOnError)
	dev := addDeviceFlags(fs)
	repair := fs.Bool("repair", false, "re-encode and re-upload damaged blocks, commit refreshed placements")
	rate := fs.Float64("rate", 0, "max block fetches per second (0 = unpaced)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	d, err := dev.open(ctx, core.Config{ScrubRate: *rate})
	if err != nil {
		return err
	}
	client := d.client

	// The repair commit starts from the device's checkpointed view, as
	// `run` and `serve` do, not from v0.
	if _, _, err := client.LoadState(); err != nil {
		return err
	}
	rep, err := client.Scrub(ctx, *repair)
	if err != nil {
		return err
	}
	fmt.Printf("scrub: %d segments, %d copies checked: %d verified, %d missing, %d corrupt\n",
		rep.Segments, rep.BlocksChecked, rep.BlocksVerified, rep.BlocksMissing, rep.BlocksCorrupt)
	if rep.RepairedBlocks > 0 {
		fmt.Printf("scrub: %d blocks repaired (committed: %v)\n", rep.RepairedBlocks, rep.Committed)
	}
	if rep.ThinSegments > 0 || rep.ReexpandedBlocks > 0 {
		fmt.Printf("scrub: %d thin segments walked, %d blocks re-expanded, %d thin marks cleared\n",
			rep.ThinSegments, rep.ReexpandedBlocks, rep.ThinCleared)
	}
	for _, c := range rep.UnknownClouds {
		fmt.Printf("scrub: cloud %s unreachable: its copies were not checked\n", c)
	}
	for _, id := range rep.Unrepairable {
		fmt.Printf("scrub: segment %s UNREPAIRABLE: fewer than K verified blocks reachable\n", id)
	}
	for _, id := range rep.UnrepairableCapacity {
		fmt.Printf("scrub: segment %s deferred: intact, but every eligible cloud is out of quota\n", id)
	}
	damaged := rep.BlocksMissing + rep.BlocksCorrupt
	if damaged > 0 && !*repair {
		fmt.Printf("scrub: %d damaged copies found; re-run with -repair to restore redundancy\n", damaged)
	}
	if len(rep.Unrepairable) > 0 {
		return fmt.Errorf("scrub: %d segments unrepairable", len(rep.Unrepairable))
	}
	return nil
}
