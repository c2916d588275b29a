package main

import (
	"fmt"
	"math/rand"
)

const (
	kb = 1 << 10
	mb = 1 << 20

	bigFileSize   = 32 * mb
	batchFiles    = 50
	batchFileSize = 1 * mb
	batchDirs     = 8
	editFileSize  = 100 * kb
	// applyEvery is how many single-file commits B lets accumulate
	// before it catches up.
	applyEvery = 4
	// Idle polls after each apply: rounds are few and long, edit units
	// many and short; both end near a hundred polls a run.
	pollsPerRound = 12
	pollsPerUnit  = 4
	prepopFiles   = 5000
	prepopSize    = 4 * kb
	prepopDirs    = 50
	minCommits    = 100 // a p90 needs ten samples beyond it
	// mixed_lan_5k's second phase is a fixed number of rounds per second
	// asked for, not time-boxed: requests_per_commit and the other ratios
	// depend on the mix of single-file commits and rounds, and on
	// loopback one round varies 3x within a run, so the throughput
	// medians need every sample they can get.
	lanFileSize     = 16 * mb
	lanRoundsPerSec = 1.2
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// wan puts the deterministic netsim profile behind every server;
	// otherwise requests hit the stores unshaped.
	wan bool
	// setup runs after the world is built and before anything is
	// measured: warm passes and pre-population. Its time is setup_s.
	setup func(b *bench) error
	// run is the measured part.
	run func(b *bench) error
}

var workloads = []workload{
	{name: "bigfile_wan", wan: true, setup: warmBigfile, run: runBigfile},
	{name: "batch_wan", wan: true, setup: warmBatch, run: runBatch},
	{name: "edits_wan", wan: true, setup: warmEdits, run: runEdits},
	{name: "mixed_lan_5k", wan: false, setup: prepopulate, run: runMixed},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// bigRound overwrites one 32 MB file on A and carries it to B.
func bigRound(b *bench, path string, size int) error {
	if err := b.write(path, size); err != nil {
		return err
	}
	b.commitDirty("bulk", int64(size), path)
	b.apply()
	b.idle(pollsPerRound)
	return nil
}

func warmBigfile(b *bench) error { return bigRound(b, "big/warm.bin", 8*mb) }

// runBigfile alternates between two slots, so every round after the
// second also garbage-collects the blocks of the version it replaces
// and memory stays bounded.
func runBigfile(b *bench) error {
	for r := 0; b.more(r, 4); r++ {
		if err := bigRound(b, fmt.Sprintf("big/slot%d.bin", r%2), bigFileSize); err != nil {
			return err
		}
	}
	return nil
}

// batchRound adds n new files and commits them with one full-scan
// pass. Every round uses fresh paths: rewriting the same files would
// make each pass wait for the serial deletion of the previous round's
// blocks (about 70 ms per file on this profile, on each device), which
// bigfile_wan and edits_wan already measure and which would leave room
// for two rounds.
func batchRound(b *bench, round, n int) error {
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("batch/r%02d/d%d/f%03d.bin", round, i%batchDirs, i)
		if err := b.write(path, batchFileSize); err != nil {
			return err
		}
	}
	b.commitScan("bulk", int64(n)*batchFileSize, n)
	b.apply()
	b.idle(pollsPerRound)
	return nil
}

func warmBatch(b *bench) error { return batchRound(b, 0, batchFiles/10) }

// batchRoundsPerWorld bounds memory: rounds never overwrite, so both
// folders and the five stores grow by 4.6x the user bytes per round,
// and a process that keeps touching new memory measures the machine's
// page faults instead of the program.
const batchRoundsPerWorld = 2

func runBatch(b *bench) error {
	for r := 0; b.more(r, 4); r++ {
		if r > 0 && r%batchRoundsPerWorld == 0 {
			if err := b.freshWorld(); err != nil {
				return err
			}
		}
		if err := batchRound(b, r+1, batchFiles); err != nil {
			return err
		}
	}
	return nil
}

// editOp is one single-file change on A.
type editOp struct {
	kind string // "add", "edit" or "delete"
	path string
}

// editGen draws the edits_wan op sequence from the seed: every ten ops
// are six adds, three overwrites of a live file and one delete of a
// live file, in seeded order, so any hundred commits hold exactly the
// 60/30/10 mix and request counts do not drift with the draw.
type editGen struct {
	rng   *rand.Rand
	live  []string
	block []string
	added int
}

func newEditGen(rng *rand.Rand, live []string) *editGen {
	return &editGen{rng: rng, live: append([]string(nil), live...)}
}

func (g *editGen) next() editOp {
	if len(g.block) == 0 {
		g.block = []string{"add", "add", "add", "add", "add", "add", "edit", "edit", "edit", "delete"}
		g.rng.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	kind := g.block[0]
	g.block = g.block[1:]
	if len(g.live) == 0 {
		kind = "add" // nothing to overwrite or delete yet
	}
	switch kind {
	case "add":
		path := fmt.Sprintf("edits/f%05d.bin", g.added)
		g.added++
		g.live = append(g.live, path)
		return editOp{kind, path}
	case "edit":
		return editOp{kind, g.live[g.rng.Intn(len(g.live))]}
	}
	i := g.rng.Intn(len(g.live))
	path := g.live[i]
	g.live[i] = g.live[len(g.live)-1]
	g.live = g.live[:len(g.live)-1]
	return editOp{kind, path}
}

// commitOp performs one op on A's folder and commits it alone.
func commitOp(b *bench, op editOp) error {
	size := int64(editFileSize)
	var err error
	if op.kind == "delete" {
		size = 0
		err = b.remove(op.path)
	} else {
		err = b.write(op.path, editFileSize)
	}
	if err != nil {
		return err
	}
	b.commitDirty(op.kind, size, op.path)
	return nil
}

// editUnit is applyEvery single-file commits on A, then B catching up,
// then B polling again with nothing pending.
func editUnit(b *bench, next func() editOp) error {
	for i := 0; i < applyEvery; i++ {
		if err := commitOp(b, next()); err != nil {
			return err
		}
	}
	b.apply()
	b.idle(pollsPerUnit)
	return nil
}

var warmEditPaths = []string{"edits/warm0.bin", "edits/warm1.bin"}

func warmEdits(b *bench) error {
	for _, path := range warmEditPaths {
		if err := commitOp(b, editOp{"add", path}); err != nil {
			return err
		}
	}
	b.apply()
	b.idle(pollsPerUnit)
	return nil
}

func runEdits(b *bench) error {
	g := newEditGen(b.rng, warmEditPaths)
	for u := 0; b.more(u, minCommits/applyEvery); u++ {
		if err := editUnit(b, g.next); err != nil {
			return err
		}
	}
	return nil
}

// prepopulate commits 5000 small files from A and syncs them to B, so
// the measured commits run against a folder, an image and a metadata
// base of realistic size.
func prepopulate(b *bench) error {
	for i := 0; i < prepopFiles; i++ {
		if err := b.write(fmt.Sprintf("pre/d%02d/f%04d.bin", i%prepopDirs, i), prepopSize); err != nil {
			return err
		}
	}
	b.commitScan("bulk", prepopFiles*prepopSize, prepopFiles)
	b.apply()
	b.idle(pollsPerUnit)
	return nil
}

// runMixed is a hundred single-file add commits (a fixed count, so the
// p90 always has its ten samples beyond it), then a fixed count of 16 MB
// overwrites; the single-file commits and their applies stay the
// majority of its passes, so the per-pass medians describe them.
func runMixed(b *bench) error {
	added := 0
	add := func() editOp {
		added++
		return editOp{"add", fmt.Sprintf("adds/f%05d.bin", added)}
	}
	for u := 0; u < b.atLeast(minCommits/applyEvery); u++ {
		if err := editUnit(b, add); err != nil {
			return err
		}
	}
	for r := 0; r < int(b.seconds*lanRoundsPerSec); r++ {
		if err := bigRound(b, fmt.Sprintf("big/slot%d.bin", r%2), lanFileSize); err != nil {
			return err
		}
	}
	return nil
}
