// Package crashenum systematically explores the crash states of a
// logical-disk execution, ALICE/CrashMonkey style, and checks each one
// against an oracle built from the paper's guarantees (§3): every
// atomic recovery unit is all-or-nothing, simple operations made
// durable by a completed flush survive, recovery never fails, and the
// consistency sweep leaves nothing behind.
//
// A Recorder wraps the simulated disk and journals every write with
// the sync epoch it was issued in; Sync is the reorder barrier of the
// model. An enumerator then materializes crash images — write
// prefixes between barriers, bounded reordered drop-subsets within the
// crash epoch, and torn sector-prefix tails of in-flight writes —
// re-opens each image through recovery, and runs the oracle.
package crashenum

import (
	"sync"
	"sync/atomic"

	"aru/internal/disk"
)

// Clock is a global event sequence shared by the recorders of a
// multi-device execution (a sharded disk plus its coordinator log).
// Every write and every sync on any device draws one tick, giving a
// single total order of I/O events across devices — the causal
// skeleton the multi-device enumerator crashes at: a crash instant G
// keeps, on each device, exactly the epochs whose sync ticked at or
// before G, while later events have not happened anywhere.
type Clock struct{ n atomic.Uint64 }

// tick returns the next global sequence number.
func (c *Clock) tick() uint64 { return c.n.Add(1) }

// Now returns the current global sequence (the tick of the most recent
// event; 0 before any).
func (c *Clock) Now() uint64 { return c.n.Load() }

// WriteOp is one journaled device write.
type WriteOp struct {
	Off   int64
	Data  []byte // private copy of what was written
	Epoch int    // sync epoch the write was issued in
	GSeq  uint64 // global clock tick of the write
}

// Sectors returns the length of the write in whole sectors.
func (w WriteOp) Sectors() int { return len(w.Data) / disk.SectorSize }

// Recorder is a disk.Disk that journals every successful write along
// with the sync epoch it belongs to. Epoch n comprises the writes
// issued after the n-th completed Sync; a crash model may reorder or
// lose writes only within the final epoch, because every earlier epoch
// was sealed by a sync barrier.
type Recorder struct {
	dev   *disk.Sim
	clock *Clock

	mu     sync.Mutex
	ops    []WriteOp
	epoch  int
	syncsG []uint64 // global clock tick of each completed Sync
}

var _ disk.Disk = (*Recorder)(nil)

// NewRecorder returns a Recorder over a fresh zeroed in-memory disk of
// the given capacity. It draws its event ticks from c, the clock the
// devices of a multi-device execution share; nil gives it its own.
func NewRecorder(capacity int64, c *Clock) *Recorder {
	if c == nil {
		c = &Clock{}
	}
	return &Recorder{dev: disk.NewMem(capacity), clock: c}
}

// ReadAt reads through to the underlying device.
func (r *Recorder) ReadAt(p []byte, off int64) error { return r.dev.ReadAt(p, off) }

// WriteAt applies the write to the underlying device and, on success,
// appends it to the journal tagged with the current epoch. The device
// call and the journal append happen under one lock so that, with
// concurrent callers (the group-commit engine issues device I/O from
// several goroutines), a write can never be journaled in a different
// epoch than the one it hit the device in.
func (r *Recorder) WriteAt(p []byte, off int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.dev.WriteAt(p, off); err != nil {
		return err
	}
	r.ops = append(r.ops, WriteOp{Off: off, Data: append([]byte(nil), p...), Epoch: r.epoch, GSeq: r.clock.tick()})
	return nil
}

// Sync completes the current epoch: all journaled writes so far are
// considered on stable storage, and subsequent writes belong to the
// next epoch. Like WriteAt it holds the lock across the device call,
// so the epoch increment is atomic with the barrier it models.
func (r *Recorder) Sync() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.dev.Sync(); err != nil {
		return err
	}
	r.epoch++
	r.syncsG = append(r.syncsG, r.clock.tick())
	return nil
}

// SyncGSeqs returns the global clock tick of each completed Sync, in
// order (index e is the tick sealing epoch e).
func (r *Recorder) SyncGSeqs() []uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]uint64(nil), r.syncsG...)
}

// Size returns the capacity of the device in bytes.
func (r *Recorder) Size() int64 { return r.dev.Size() }

// Epoch returns the current sync epoch (the number of completed
// Syncs).
func (r *Recorder) Epoch() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Journal returns the journaled writes. The slice (not the payloads)
// is copied; callers must not mutate the payloads.
func (r *Recorder) Journal() []WriteOp {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]WriteOp(nil), r.ops...)
}
