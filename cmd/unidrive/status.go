package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"unidrive/internal/core"
)

// runStatus implements `unidrive status`: a read-only capacity and
// placement view of the committed metadata. It reports how the pool's
// blocks are spread across the clouds, which segments are committed
// thin (under-replicated because quota ran out when they were
// written), and this session's capacity tracker states. Thin segments
// are the durable footprint of quota exhaustion — they persist in the
// metadata until a repair scrub re-expands them, so status shows
// capacity pressure even from a cold start.
func runStatus(args []string) error {
	fs := flag.NewFlagSet("status", flag.ExitOnError)
	dev := addDeviceFlags(fs)
	verbose := fs.Bool("v", false, "list every thin segment, not just the count")
	if err := fs.Parse(args); err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	d, err := dev.open(ctx, core.Config{})
	if err != nil {
		return err
	}
	img, err := d.client.FetchImage(ctx)
	if err != nil {
		return err
	}

	perCloud := make(map[string]int)
	var bytesTotal int64
	segments, thin := 0, []string{}
	for id := range img.AllSegments() {
		seg, _ := img.Segment(id)
		segments++
		bytesTotal += int64(seg.Length)
		for _, b := range seg.Blocks {
			perCloud[b.CloudID]++
		}
		if seg.Thin {
			thin = append(thin, id)
		}
	}
	sort.Strings(thin)

	fmt.Printf("status: metadata v%d, %d segments, %d bytes of content\n",
		img.Version, segments, bytesTotal)
	fmt.Printf("%-12s %-10s %-8s %s\n", "CLOUD", "BLOCKS", "STATE", "QUOTA REJECTIONS")
	for _, c := range d.clouds {
		name := c.Name()
		fmt.Printf("%-12s %-10d %-8s %d\n",
			name, perCloud[name], d.capacity.State(name), d.capacity.Rejections(name))
	}
	if len(thin) == 0 {
		fmt.Println("capacity: no thin segments — every segment holds its full placement")
		return nil
	}
	fmt.Printf("capacity: %d THIN segments (committed under-replicated while clouds were out of quota)\n", len(thin))
	if *verbose {
		for _, id := range thin {
			seg, _ := img.Segment(id)
			fmt.Printf("  %s: %d/%d blocks (K=%d)\n",
				id, len(seg.Blocks), d.client.Params().NormalBlocks(), seg.K)
		}
	}
	fmt.Println("capacity: free space on the clouds, then run `unidrive scrub -repair` to re-expand")
	return nil
}
