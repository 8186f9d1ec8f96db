package crashenum

import (
	"fmt"
	"math/rand"

	"aru/internal/core"
)

// The wrap workload's geometry: a pool of simple blocks several
// segments large, overwritten in cyclic order on a log so short that a
// clean run wraps it many times.
const (
	wrapSegs  = 14
	wrapPool  = 30
	wrapSteps = 64
	// wrapCkptSegs forces a checkpoint once this many segments were
	// written since the last one. A checkpoint makes every dead segment
	// reusable; the log head first consumes those (wrapSegs minus the
	// pool's five live segments and the open one), then the segments
	// that died since — the reuse this workload is after — and then the
	// log is full of segments past the checkpoint watermark.
	wrapCkptSegs = wrapSegs - 3
)

// runWrap executes the wrapped-log workload: runs of one to eight
// simple overwrites cycle through the pool, and the only durability
// points are Checkpoints (now and then, and before the log fills) — no
// Flush. Every segment is therefore sealed by a full builder, sits
// unsynced on the device for several seals, and is rewritten a
// checkpoint or two later, so the enumerated drop states cover what the
// stock scripts' 96-segment log never reaches: a reused segment whose
// rewrite overtakes the seal that emptied it (DESIGN.md §11). The
// oracle is the pool clause alone: every block reads one of its own
// generations, never older than its durable floor.
func runWrap(seed int64, o Options) (*execution, error) {
	e, err := formatEngine(o.Inject, func(p *core.Params) {
		p.Layout.NumSegs = wrapSegs
		// The script owns the checkpoints, and cyclic overwrites leave
		// nothing for the cleaner to do.
		p.CheckpointEvery = -1
		p.CleanerLowWater = -1
	})
	if err != nil {
		return nil, err
	}
	d, f := e.d, newFacts(e.d, e.now)
	var ckptSegs int64 // segments written up to the last checkpoint
	checkpoint := func() error {
		if err := d.Checkpoint(); err != nil {
			return err
		}
		ckptSegs = d.Stats().SegmentsWritten
		f.markDurable()
		return nil
	}
	start, err := f.seedPool(wrapPool, checkpoint)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	next := 0
	for step := 0; step < wrapSteps; step++ {
		if rng.Intn(24) == 0 || d.Stats().SegmentsWritten-ckptSegs >= wrapCkptSegs {
			if err := checkpoint(); err != nil {
				return nil, fmt.Errorf("crashenum: wrap step %d: %w", step, err)
			}
			continue
		}
		for n := 1 + rng.Intn(8); n > 0; n, next = n-1, (next+1)%wrapPool {
			if err := f.poolWrite(next); err != nil {
				return nil, fmt.Errorf("crashenum: wrap step %d: %w", step, err)
			}
		}
	}
	x := e.execution("wrap", start, f.judge)
	// A rewrite overtakes the seal that emptied the segment from up to a
	// log's length of writes behind it: reorder across the whole log.
	x.window = wrapSegs
	return x, nil
}
