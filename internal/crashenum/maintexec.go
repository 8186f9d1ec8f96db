package crashenum

import (
	"fmt"
	"math/rand"

	"aru/internal/core"
)

// The maint workload's geometry: a log short enough, and a checkpoint
// interval low enough, that pool overwrites bring automatic checkpoints
// and cleaner passes due while units are open.
const (
	maintSegs  = 12
	maintPool  = 12
	maintUnits = 12
)

// runMaint executes the maintenance-beside-units workload: two or three
// units are open at once, and between their operations run bursts of
// simple pool overwrites, Flushes, explicit Checkpoints and Clean calls,
// while automatic checkpoints and cleaner passes fire on their own. A
// unit logs nothing a checkpoint could cut before it ends (DESIGN.md §11),
// so none of that maintenance waits for it, and none may cost it its
// atomicity: units end or abort, and the oracle is the mixed workload's.
// Each run logs how much automatic maintenance ran beside open units;
// TestMaintWorkload requires some of both kinds on every seed CI runs.
func runMaint(seed int64, o Options) (*execution, error) {
	e, err := formatEngine(o.Inject, func(p *core.Params) {
		p.Layout.NumSegs = maintSegs
		p.CheckpointEvery = 2
		p.CleanerLowWater = 6
	})
	if err != nil {
		return nil, err
	}
	d, f := e.d, newFacts(e.d, e.now)
	start, err := f.seedPool(maintPool, e.flushAndCheckpoint)
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(seed))
	// op runs one operation of unit u: a new block, a deletion or a
	// rewrite of one of its live blocks.
	op := func(u *liveUnit) error {
		switch k := rng.Intn(6); {
		case len(u.live) == 0 || k < 2:
			return u.newBlock(u.fact.allLists[0])
		case k == 2:
			return u.delete(rng.Intn(len(u.live)))
		}
		return u.rewrite(rng.Intn(len(u.live)))
	}
	var (
		open      []*liveUnit
		begun     int
		autoCkpts int64 // checkpoints no explicit call asked for, with units open
		autoMoved int64 // blocks the cleaner relocated the same way
	)
	for step := 0; begun < maintUnits || len(open) > 0; step++ {
		before := d.Stats()
		explicit := false
		var err error
		switch r := rng.Intn(20); {
		case begun < maintUnits && (len(open) < 2 || r == 0 && len(open) < 3):
			var u *liveUnit
			if u, err = f.begin(begun); err == nil {
				begun++
				open = append(open, u)
				_, err = u.newList()
			}
		case r < 6:
			err = op(open[rng.Intn(len(open))])
		case r < 12:
			for n := 1 + rng.Intn(8); n > 0 && err == nil; n-- {
				err = f.poolWrite(rng.Intn(maintPool))
			}
		case r < 14:
			if err = d.Flush(); err == nil {
				f.markDurable()
			}
		case r == 14:
			explicit = true
			if err = d.Checkpoint(); err == nil {
				f.markDurable()
			}
		case r == 15:
			explicit = true
			var n int
			// A pass that reclaimed anything ended in a checkpoint round,
			// which made everything before it durable.
			if n, err = d.Clean(maintSegs); err == nil && n > 0 {
				f.markDurable()
			}
		default:
			slot := rng.Intn(len(open))
			u := open[slot]
			if u.serial < 3 {
				err = op(u) // too young to end
				break
			}
			if rng.Intn(5) == 0 {
				err = u.abort()
			} else {
				err = u.end(d.EndARU, false)
			}
			open = append(open[:slot], open[slot+1:]...)
		}
		if err != nil {
			return nil, fmt.Errorf("crashenum: maint step %d: %w", step, err)
		}
		if after := d.Stats(); !explicit && len(open) > 0 {
			autoCkpts += after.Checkpoints - before.Checkpoints
			autoMoved += after.BlocksRelocated - before.BlocksRelocated
		}
	}
	if err := d.Flush(); err != nil {
		return nil, err
	}
	f.markDurable()
	if o.Logf != nil {
		o.Logf("maint seed=%d: %d automatic checkpoints, %d blocks relocated by automatic cleaning, beside open units",
			seed, autoCkpts, autoMoved)
	}
	return e.execution("maint", start, f.judge), nil
}
