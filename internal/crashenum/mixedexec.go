package crashenum

import (
	"errors"
	"fmt"

	"aru/internal/core"
	"aru/internal/seg"
	"aru/internal/workload"
)

// runMixed formats a logical disk on a fresh Recorder, executes the
// seeded mixed workload script against it, and returns the facts the
// oracle checks each crash state against. The pool blocks are created
// and checkpointed before the recorded window starts.
func runMixed(seed int64, o Options) (*execution, error) {
	e, err := formatEngine(o.Inject, nil)
	if err != nil {
		return nil, err
	}
	d, f := e.d, newFacts(e.d, e.now)
	start, err := f.seedPool(workload.MixedPoolBlocks, e.flushAndCheckpoint)
	if err != nil {
		return nil, err
	}

	open := make(map[int]*liveUnit)
	for i, op := range workload.MixedScript(seed, o.MixedParams) {
		var err error
		u := open[op.Unit]
		switch op.Kind {
		case workload.MixedBegin:
			open[op.Unit], err = f.begin(op.Unit)
		case workload.MixedNewList:
			_, err = u.newList()
		case workload.MixedNewBlock:
			lists := u.fact.allLists
			err = u.newBlock(lists[op.Arg%len(lists)])
		case workload.MixedRewrite:
			err = u.rewrite(op.Arg % len(u.live))
		case workload.MixedDelete:
			err = u.delete(op.Arg % len(u.live))
		case workload.MixedEnd:
			err = u.end(d.EndARU, false)
			delete(open, op.Unit)
		case workload.MixedAbort:
			err = u.abort()
			delete(open, op.Unit)
		case workload.MixedPoolWrite:
			err = f.poolWrite(op.Arg % len(f.pool))
		case workload.MixedFlush:
			if err = d.Flush(); err == nil {
				f.markDurable()
			}
		case workload.MixedConcFlush:
			// A group-commit phase: op.Arg goroutines call Flush at
			// once and the broker may serve them all with one device
			// sync. The journal stays deterministic regardless of
			// scheduling: whichever caller leads the first batch seals
			// everything buffered so far (the script up to here ran
			// sequentially), and every later batch finds the builder
			// empty and the device already covered by that batch's
			// sync, so it performs no I/O at all.
			errs := make(chan error, op.Arg)
			for k := 0; k < op.Arg; k++ {
				go func() { errs <- d.Flush() }()
			}
			for k := 0; k < op.Arg; k++ {
				if ferr := <-errs; ferr != nil && err == nil {
					err = ferr
				}
			}
			if err == nil {
				f.markDurable()
			}
		case workload.MixedCheckpoint:
			if err = d.Checkpoint(); err == nil {
				f.markDurable()
			}
		}
		if err != nil {
			return nil, fmt.Errorf("crashenum: script op %d (kind %d unit %d): %w", i, op.Kind, op.Unit, err)
		}
	}

	// Reader-during-recovery phase, pre-crash half: a snapshot pinned
	// before the crash must not be consultable afterwards. The crash
	// simulators invalidate the engine before tearing device state;
	// replaying that here proves a stale handle fails with
	// ErrSnapshotStale instead of answering from a world the reopened
	// disk may have diverged from.
	h, err := d.AcquireSnapshot()
	if err != nil {
		return nil, fmt.Errorf("crashenum: pre-crash snapshot: %w", err)
	}
	defer h.Release()
	d.Invalidate()
	buf := make([]byte, f.bsize)
	if err := h.Read(seg.SimpleARU, f.pool[0].id, buf); !errors.Is(err, core.ErrSnapshotStale) {
		return nil, fmt.Errorf("crashenum: pre-crash snapshot still consultable after invalidation (err=%v)", err)
	}
	if _, err := h.ListBlocks(seg.SimpleARU, f.poolList); !errors.Is(err, core.ErrSnapshotStale) {
		return nil, fmt.Errorf("crashenum: pre-crash snapshot list walk survived invalidation (err=%v)", err)
	}
	return e.execution("mixed", start, f.judge), nil
}
