package deltasync

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"

	"unidrive/internal/meta"
)

// placedAdd adds path → one segment whose three blocks sit at
// locations unique to gen, so a re-upload of the same segment never
// names a block an earlier upload did.
func placedAdd(path, segID string, gen int) *meta.Change {
	c := addChange(path, segID)
	for i := 0; i < 3; i++ {
		id := gen*3 + i
		c.Segments[0].Blocks = append(c.Segments[0].Blocks,
			meta.BlockLocation{BlockID: id, CloudID: fmt.Sprintf("c%d", id%5), Checksum: uint32(id + 1)})
	}
	return c
}

type blockAt struct {
	seg   string
	id    int
	cloud string
}

// Delta-sync's one property: every device that reads the same base +
// chain derives the same image. The chains here drop a segment (its
// last reference deleted — the point where the committer's GC deletes
// its blocks) and commit it again later at new locations, behind a
// rotated base. The committer, a follower that catches up
// incrementally and a device that arrives cold through the full fetch
// must hold byte-identical images, none naming a released block.
func TestReplicasAgreeAfterDropAndRecommit(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { replicasAgree(t, seed) })
	}
}

func replicasAgree(t *testing.T, seed int64) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	r := newRig(5)
	committer := r.store(t, "dA", Config{})
	stats, err := committer.Commit(ctx, batch("base", 40))
	if err != nil || !stats.BaseRotated {
		t.Fatalf("base commit: %+v, %v", stats, err)
	}
	follower := r.store(t, "dF", Config{})
	if _, err := follower.fetchAll(ctx); err != nil {
		t.Fatal(err)
	}

	released := map[blockAt]bool{}
	live := map[string]string{} // path → its one segment
	var dropped []string
	gen, paths := 0, 0
	commit := func(c *meta.Change) {
		t.Helper()
		before := committer.CachedShared()
		stats, err := committer.Commit(ctx, []*meta.Change{c})
		if err != nil {
			t.Fatal(err)
		}
		if stats.BaseRotated {
			t.Fatalf("commit v%d rotated; the chain must stay behind one base", stats.Version)
		}
		after := committer.CachedShared()
		for id, seg := range before.AllSegments() {
			if _, ok := after.Segment(id); !ok {
				for _, b := range seg.Blocks {
					released[blockAt{id, b.BlockID, b.CloudID}] = true
				}
			}
		}
	}
	add := func(segID string) {
		gen++
		paths++
		path := fmt.Sprintf("f%03d", paths)
		commit(placedAdd(path, segID, gen))
		live[path] = segID
	}
	remove := func(path string) {
		commit(&meta.Change{Type: meta.ChangeDelete, Path: path, Time: time.Unix(2, 0)})
		dropped = append(dropped, live[path])
		delete(live, path)
	}

	// The shape that diverged, then a seeded walk of the same moves.
	add("S")
	remove("f001")
	add("S")
	for step := 0; step < 12; step++ {
		switch op := rng.Intn(3); {
		case op == 0 && len(live) > 0:
			var victims []string
			for p := range live {
				victims = append(victims, p)
			}
			// Map order is random; pick by the seeded source from a sorted list.
			sort.Strings(victims)
			remove(victims[rng.Intn(len(victims))])
		case op == 1 && len(dropped) > 0:
			i := rng.Intn(len(dropped))
			segID := dropped[i]
			dropped = append(dropped[:i], dropped[i+1:]...)
			add(segID)
		default:
			add(fmt.Sprintf("T%d", gen+1))
		}
		if rng.Intn(3) == 0 {
			if _, err := follower.Refresh(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := follower.Refresh(ctx); err != nil {
		t.Fatal(err)
	}
	cold := r.store(t, "dC", Config{})
	if _, err := cold.fetchAll(ctx); err != nil {
		t.Fatal(err)
	}

	want, err := committer.CachedShared().Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, replica := range []struct {
		name string
		s    *Store
	}{{"committer", committer}, {"incremental follower", follower}, {"cold full fetch", cold}} {
		img := replica.s.CachedShared()
		got, err := img.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: image v%d does not encode like the committer's", replica.name, img.Version)
		}
		for id, seg := range img.AllSegments() {
			for _, b := range seg.Blocks {
				if released[blockAt{id, b.BlockID, b.CloudID}] {
					t.Errorf("%s: segment %s names block %d on %s, which the committer released", replica.name, id, b.BlockID, b.CloudID)
				}
			}
		}
	}
}
