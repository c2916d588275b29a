package experiments

import (
	"context"
	"fmt"
	"time"

	"unidrive/internal/cloud"
	"unidrive/internal/cloudsim"
	"unidrive/internal/deltasync"
	"unidrive/internal/meta"
	"unidrive/internal/metacrypt"
)

// fig13DeltaSync reproduces Figure 13: the metadata size versus the
// metadata traffic actually transferred, while files are added one
// per sync. With Delta-sync, per-commit traffic stays near the small
// delta size with sparse peaks when a base merge happens; without it,
// every commit would re-upload the whole (growing) image. The paper
// measures a 13.1× total reduction.
//
// This is a metadata-only experiment: it runs on direct (unshaped)
// clouds, since the quantity of interest is bytes, not seconds.
func fig13DeltaSync(opts Opts) *Table {
	var clouds []cloud.Interface
	for i := 0; i < 5; i++ {
		clouds = append(clouds, cloudsim.NewDirect(cloudsim.NewStore(fmt.Sprintf("c%d", i), 0)))
	}
	cipher, err := metacrypt.New(metacrypt.DES, "fig13")
	if err != nil {
		panic(err)
	}
	store := deltasync.New(clouds, cipher, deltasync.Config{Device: "d1"})

	t := &Table{
		Title:   fmt.Sprintf("Fig 13: metadata size vs Delta-sync traffic over %d single-file commits", opts.Files),
		Headers: []string{"commit", "full image [KB]", "sent this commit [KB]", "base merges so far"},
	}
	var withDelta, withoutDelta int64
	merges := 0
	checkpoints := map[int]bool{}
	for i := 1; i <= 8; i++ {
		checkpoints[opts.Files*i/8] = true
	}
	ctx := context.Background()
	for i := 0; i < opts.Files; i++ {
		path := fmt.Sprintf("docs/file-%04d.dat", i)
		segID := fmt.Sprintf("seg-%04d", i)
		change := &meta.Change{
			Type: meta.ChangeAdd,
			Path: path,
			Snapshot: &meta.Snapshot{
				Path: path, Size: int64(opts.FileKB) << 10, Device: "d1",
				ModTime:    time.Unix(int64(i)*60, 0), // one per minute
				SegmentIDs: []string{segID},
			},
			Segments: []*meta.Segment{{
				ID: segID, Length: opts.FileKB << 10, K: 3, N: 10,
				Blocks: []meta.BlockLocation{{BlockID: 0, CloudID: "c0"},
					{BlockID: 1, CloudID: "c1"}, {BlockID: 2, CloudID: "c2"},
					{BlockID: 3, CloudID: "c3"}, {BlockID: 4, CloudID: "c4"}},
			}},
			Time: time.Unix(int64(i)*60, 0),
		}
		stats, err := store.Commit(ctx, []*meta.Change{change})
		if err != nil {
			t.AddNote("commit %d failed: %v", i, err)
			break
		}
		sent := int64(stats.DeltaBytes)
		if stats.BaseRotated {
			sent = int64(stats.BaseBytes)
			merges++
		}
		withDelta += sent
		// The counterfactual: without Delta-sync every commit uploads the
		// whole sealed image. The store — the one the client runs — seals
		// it only when it rotates, so the experiment seals it itself.
		full, err := sealedImageBytes(store.CachedShared(), cipher)
		if err != nil {
			t.AddNote("commit %d: %v", i, err)
			break
		}
		withoutDelta += int64(full)
		if checkpoints[i+1] {
			t.AddRow(fmt.Sprintf("%d", i+1),
				fmt.Sprintf("%.1f", float64(full)/1024),
				fmt.Sprintf("%.1f", float64(sent)/1024),
				fmt.Sprintf("%d", merges))
		}
	}
	t.AddNote("total metadata traffic: %.1f KB with Delta-sync vs %.1f KB re-uploading the image every commit — a %.1fx reduction (paper: 13.1x)",
		float64(withDelta)/1024, float64(withoutDelta)/1024, float64(withoutDelta)/float64(withDelta))
	return t
}

// sealedImageBytes is the size of img as a base file on a cloud.
func sealedImageBytes(img *meta.Image, cipher *metacrypt.Cipher) (int, error) {
	plain, err := img.Encode()
	if err != nil {
		return 0, err
	}
	sealed, err := cipher.Seal(plain)
	return len(sealed), err
}
