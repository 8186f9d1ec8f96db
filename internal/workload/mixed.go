package workload

import "math/rand"

// MixedKind enumerates the operations of a mixed ARU workload script.
type MixedKind uint8

const (
	// MixedBegin opens recovery unit Unit.
	MixedBegin MixedKind = iota
	// MixedNewList creates a list inside unit Unit.
	MixedNewList
	// MixedNewBlock allocates a block on list Arg (index into the
	// unit's lists, modulo their count) inside unit Unit and writes
	// its initial payload.
	MixedNewBlock
	// MixedRewrite overwrites live block Arg (index into the unit's
	// live blocks, modulo their count) of unit Unit.
	MixedRewrite
	// MixedDelete deletes live block Arg of unit Unit.
	MixedDelete
	// MixedEnd commits unit Unit.
	MixedEnd
	// MixedAbort aborts unit Unit.
	MixedAbort
	// MixedPoolWrite overwrites pool block Arg (modulo the pool size)
	// with its next generation, outside any unit — a simple operation
	// in the paper's sense.
	MixedPoolWrite
	// MixedFlush makes everything committed so far durable.
	MixedFlush
	// MixedCheckpoint takes a table checkpoint. Only generated while
	// no unit is open, which keeps these scripts as they were; crashenum's
	// maint workload checkpoints beside open units.
	MixedCheckpoint
	// MixedConcFlush issues Arg concurrent Flush calls (from Arg
	// goroutines, all at once) and waits for every one — a
	// group-commit phase: the engine may coalesce them into fewer
	// device syncs. Generated only when MixedParams.ConcFlushers > 0.
	MixedConcFlush
)

// MixedOp is one step of a mixed workload script. Unit is the
// script-local unit index (-1 for global operations); Arg selects a
// list, block or pool slot as documented per kind.
type MixedOp struct {
	Kind MixedKind
	Unit int
	Arg  int
}

// The fixed shape of a mixed workload script.
const (
	// mixedMaxOpen bounds how many units are open concurrently.
	mixedMaxOpen = 3
	// MixedPoolBlocks is the number of pre-created simple-write pool
	// blocks a script assumes.
	MixedPoolBlocks = 6
	// mixedOpsPerUnit is the approximate number of operations inside
	// each unit before it becomes eligible to close.
	mixedOpsPerUnit = 6
	// mixedAbortFrac is the percentage of units that abort instead of
	// committing.
	mixedAbortFrac = 20
)

// MixedParams sizes a mixed workload. Zero fields select defaults.
type MixedParams struct {
	// Units is the total number of recovery units the script runs
	// (default 48).
	Units int
	// ConcFlushers, when positive, makes the script include
	// MixedConcFlush phases of this many concurrent committers
	// (default 0: no concurrent phases, scripts are fully sequential).
	ConcFlushers int
}

// mixedUnit is the generator's abstract view of one open unit: it only
// tracks counts, which is all an interpreter needs to agree on Arg
// selection (Arg indexes the interpreter's own list/live-block slices).
type mixedUnit struct {
	idx   int
	lists int
	live  int
	ops   int
}

// MixedScript generates a deterministic interleaved workload of
// recovery units (with aborts), list and block operations inside them,
// simple pool writes, flushes and checkpoints. The same seed and
// params always yield the same script, and every emitted op is valid
// when interpreted in order (a unit is only ended once, blocks are
// only rewritten while one is live, checkpoints only appear while no
// unit is open, as MixedCheckpoint says).
func MixedScript(seed int64, p MixedParams) []MixedOp {
	if p.Units == 0 {
		p.Units = 48
	}
	rng := rand.New(rand.NewSource(seed))
	var (
		script  []MixedOp
		open    []*mixedUnit
		started int
	)
	emit := func(k MixedKind, unit, arg int) {
		script = append(script, MixedOp{Kind: k, Unit: unit, Arg: arg})
	}
	closeUnit := func(u *mixedUnit, slot int) {
		if rng.Intn(100) < mixedAbortFrac {
			emit(MixedAbort, u.idx, 0)
		} else {
			emit(MixedEnd, u.idx, 0)
		}
		open = append(open[:slot], open[slot+1:]...)
	}
	for started < p.Units || len(open) > 0 {
		// Weighted choice over currently valid actions.
		type action struct {
			w  int
			do func()
		}
		var acts []action
		if started < p.Units && len(open) < mixedMaxOpen {
			acts = append(acts, action{3, func() {
				u := &mixedUnit{idx: started}
				emit(MixedBegin, u.idx, 0)
				open = append(open, u)
				started++
			}})
		}
		for slot := range open {
			u, slot := open[slot], slot
			if u.lists < 2 {
				acts = append(acts, action{1, func() {
					emit(MixedNewList, u.idx, 0)
					u.lists++
					u.ops++
				}})
			}
			if u.lists > 0 {
				acts = append(acts, action{4, func() {
					emit(MixedNewBlock, u.idx, rng.Intn(u.lists))
					u.live++
					u.ops++
				}})
			}
			if u.live > 0 {
				acts = append(acts, action{3, func() {
					emit(MixedRewrite, u.idx, rng.Intn(u.live))
					u.ops++
				}})
				acts = append(acts, action{1, func() {
					emit(MixedDelete, u.idx, rng.Intn(u.live))
					u.live--
					u.ops++
				}})
			}
			w := 1
			if u.ops >= mixedOpsPerUnit {
				w = 6
			}
			acts = append(acts, action{w, func() { closeUnit(u, slot) }})
		}
		acts = append(acts, action{2, func() {
			emit(MixedPoolWrite, -1, rng.Intn(MixedPoolBlocks))
		}})
		acts = append(acts, action{2, func() { emit(MixedFlush, -1, 0) }})
		if p.ConcFlushers > 0 {
			acts = append(acts, action{2, func() {
				emit(MixedConcFlush, -1, p.ConcFlushers)
			}})
		}
		if len(open) == 0 {
			acts = append(acts, action{1, func() { emit(MixedCheckpoint, -1, 0) }})
		}
		total := 0
		for _, a := range acts {
			total += a.w
		}
		pick := rng.Intn(total)
		for _, a := range acts {
			if pick < a.w {
				a.do()
				break
			}
			pick -= a.w
		}
	}
	emit(MixedFlush, -1, 0)
	return script
}
