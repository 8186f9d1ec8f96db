package crashenum

import (
	"fmt"
	"hash/fnv"

	"aru/internal/disk"
)

// recoverThenCrash crashes *recovery itself*: it re-runs recovery over
// the crash image img on a fresh Recorder, journaling every device
// write the first recovery issues — replayed-state promotion segments,
// the cut-seal checkpoint over a dropped tail, the leak sweep's log
// entries — and then enumerates crash states of that execution. Each
// double-crash image is mounted through recovery a second time and
// checked against the same oracle, judged at the *original* crash
// epoch: recovery acknowledges nothing new, so whatever was durable
// before the first crash must survive no matter where the first
// recovery was interrupted, and re-recovery must converge (REDO-only
// replay is idempotent; DESIGN.md §15).
//
// fn receives each sub-state and its oracle findings; returning false
// stops the sub-enumeration. maxSub bounds the sub-states explored
// (<=0: unlimited).
func (x *execution) recoverThenCrash(outer State, img []byte, window int, seed int64, maxSub int,
	fn func(sub State, viols []string) bool) error {
	rj, start, err := x.recoverJournal(outer, img)
	if err != nil {
		return err
	}
	n := 0
	rj.forEach(start, window, seed^0x7ec0425, func(sub State, imgs [][]byte) bool {
		n++
		return fn(sub, x.check(outer.at(), imgs)) && (maxSub <= 0 || n < maxSub)
	})
	if n == 0 {
		// Recovery wrote nothing (no cut tail to seal, no leaks to
		// sweep), so there is exactly one double-crash image: the outer
		// image itself. Still check it — the second recovery must
		// converge to the same oracle-clean state as the first.
		fn(oneDevice(CrashState{Epoch: int(start), TearOp: -1}), x.check(outer.at(), [][]byte{img}))
	}
	return nil
}

// recoverJournal runs one recovery over img with its device writes
// journaled, returning the journal and the first epoch holding
// recovery's own writes. The whole outer crash image is seeded as
// epoch 0 and sealed, so materialized sub-states start from exactly
// that image and only recovery's writes are subject to loss.
func (x *execution) recoverJournal(outer State, img []byte) (journals, uint64, error) {
	rec := NewRecorder(int64(len(img)), nil)
	if err := rec.WriteAt(img, 0); err != nil {
		return journals{}, 0, err
	}
	if err := rec.Sync(); err != nil {
		return journals{}, 0, err
	}
	start := uint64(rec.Epoch())
	var probed []string // the mid-replay probe's findings belong to check, not to journaling
	if _, err := x.mount([]disk.Disk{rec}, &probed); err != nil {
		return journals{}, 0, fmt.Errorf("crashenum: journaled recovery of state %s failed: %w", outer, err)
	}
	return journalsOf([]*Recorder{rec}), start, nil
}

// sampleRecoverCrash deterministically picks which clean crash states
// get the recover-then-crash treatment: roughly one in rate, by hash
// of the seed and state descriptor. rate <= 1 samples every state.
func sampleRecoverCrash(st State, seed int64, rate int) bool {
	if rate <= 1 {
		return true
	}
	h := fnv.New32a()
	fmt.Fprintf(h, "%d/%s", seed, st)
	return h.Sum32()%uint32(rate) == 0
}
