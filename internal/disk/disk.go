// Package disk provides the raw storage substrate underneath the
// log-structured logical disk.
//
// The paper's prototype ran against the SunOS raw-disk interface on an
// HP C3010 (SCSI-II, 5400 rpm, 11.5 ms average seek). This package
// substitutes a deterministic simulated disk with an explicit
// service-time model and a virtual clock, so throughput experiments are
// reproducible and the *relative* cost of the concurrent-ARU machinery
// is preserved. The simulator also supports fault injection (crash
// points, torn writes, transient write errors) used by the recovery
// property tests.
package disk

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// SectorSize is the unit of atomic transfer to the medium. The paper's
// disk (and essentially all disks of its era) guaranteed atomicity only
// per 512-byte sector; torn-write injection exploits exactly that.
const SectorSize = 512

// Common errors returned by Disk implementations.
var (
	// ErrOutOfRange reports an access beyond the end of the device.
	ErrOutOfRange = errors.New("disk: access out of range")
	// ErrUnaligned reports a transfer that is not sector-aligned.
	ErrUnaligned = errors.New("disk: unaligned access")
	// ErrCrashed reports that a simulated crash has been triggered;
	// all subsequent I/O fails until the image is re-opened.
	ErrCrashed = errors.New("disk: simulated crash")
	// ErrInjected is the base error for injected transient faults.
	ErrInjected = errors.New("disk: injected fault")
)

// Disk is the sector-addressed block device used by the logical disk.
// Addresses and lengths are in bytes but must be sector-aligned.
//
// Implementations must be safe for concurrent use.
type Disk interface {
	// ReadAt reads len(p) bytes starting at byte offset off.
	ReadAt(p []byte, off int64) error
	// WriteAt writes len(p) bytes starting at byte offset off.
	WriteAt(p []byte, off int64) error
	// Sync forces all completed writes to stable storage.
	Sync() error
	// Size returns the capacity of the device in bytes.
	Size() int64
}

// Geometry describes the performance model of a simulated disk. The
// defaults mirror the HP C3010 used in the paper's evaluation.
type Geometry struct {
	// RPM is the spindle speed; rotational latency is modeled as half
	// a revolution per request.
	RPM int
	// AvgSeek is the average seek time. Seeks are modeled as
	// AvgSeek scaled by the fraction of the total capacity the head
	// moves, with a fixed minimum settle time.
	AvgSeek time.Duration
	// MinSeek is the track-to-track settle time (the floor of the seek
	// model for small head movements).
	MinSeek time.Duration
	// TransferRate is the media transfer rate in bytes/second.
	TransferRate int64
	// CtlOverhead is the fixed per-request controller overhead.
	CtlOverhead time.Duration
}

// HPC3010 returns the geometry of the 2 GB HP C3010 drive from the
// paper's testbed (SCSI-II, 5400 rpm, 11.5 ms average seek). The
// transfer rate reflects the drive's ~2.3 MB/s sustained media rate.
func HPC3010() Geometry {
	return Geometry{
		RPM:          5400,
		AvgSeek:      11500 * time.Microsecond,
		MinSeek:      1700 * time.Microsecond,
		TransferRate: 2300 * 1024,
		CtlOverhead:  500 * time.Microsecond,
	}
}

// halfRotation returns the modeled rotational latency (half a spindle
// revolution).
func (g Geometry) halfRotation() time.Duration {
	if g.RPM <= 0 {
		return 0
	}
	perRev := time.Duration(int64(time.Minute) / int64(g.RPM))
	return perRev / 2
}

// serviceTime returns the modeled time to transfer n bytes at byte
// offset off, given the previous head position prev and total capacity.
func (g Geometry) serviceTime(prev, off, n, capacity int64) time.Duration {
	d := g.CtlOverhead
	gap := off - prev
	if gap != 0 {
		dist := gap
		if dist < 0 {
			dist = -dist
		}
		seek := g.MinSeek
		if capacity > 0 && g.AvgSeek > 0 {
			// Simple linear seek model: the average seek of the
			// drive corresponds to a stroke of one third of the
			// capacity, as for a uniformly random pair of tracks.
			scaled := time.Duration(int64(g.AvgSeek) * 3 * dist / capacity)
			if scaled > seek {
				seek = scaled
			}
		}
		reposition := seek + g.halfRotation()
		if gap > 0 && g.TransferRate > 0 {
			// Forward gaps may instead rotate past under the head at
			// media speed (track-local locality); the controller takes
			// whichever is cheaper.
			passOver := time.Duration(gap * int64(time.Second) / g.TransferRate)
			if passOver < reposition {
				reposition = passOver
			}
		}
		d += reposition
	}
	if g.TransferRate > 0 {
		d += time.Duration(n * int64(time.Second) / g.TransferRate)
	}
	return d
}

// Stats holds operation counters for a simulated disk.
type Stats struct {
	Reads        int64         // completed read requests
	Writes       int64         // completed write requests
	BytesRead    int64         // total bytes read
	BytesWritten int64         // total bytes written
	Syncs        int64         // completed Sync calls
	Elapsed      time.Duration // simulated time consumed by all I/O
}

// FaultPlan configures fault injection on a simulated disk. The zero
// value injects nothing.
type FaultPlan struct {
	// CrashAfterWrites triggers a crash once this many write requests
	// have completed (0 disables). The crash takes effect *during* the
	// next write: the write is (possibly partially) applied and then
	// ErrCrashed is returned; all later I/O fails with ErrCrashed.
	CrashAfterWrites int64
	// TornSectors, when a crash triggers mid-write, bounds how many
	// leading sectors of the fatal write reach the medium. A negative
	// value means the fatal write is lost entirely; 0 means all of it
	// lands (crash strictly after the write).
	TornSectors int
	// TornHistory makes the crash tear *any* write still in flight, not
	// just the fatal one: when a crash triggers — via CrashAfterWrites
	// or Crash — up to this many of the most recent writes since the
	// last completed Sync may be deterministically rolled back to a torn
	// sector prefix (or revoked entirely), newest first, driven by
	// TornSeed. 0 disables; only the fatal write can then tear. Sync is
	// the barrier: writes acknowledged by a completed Sync never tear.
	TornHistory int
	// TornSeed seeds the deterministic tear decisions taken for the
	// TornHistory window, so a failing crash state can be replayed.
	TornSeed int64
	// WriteErrorEvery injects a transient write error on every Nth
	// write request (0 disables). The failed write is not applied.
	WriteErrorEvery int64
}

// Sim is an in-memory simulated disk with a deterministic service-time
// model, a virtual clock, and fault injection.
type Sim struct {
	geom Geometry

	mu    sync.Mutex
	store []byte
	// head is the last byte position of the actuator, for the seek
	// model. Locked paths update it under mu; ReadAtShared swaps it
	// atomically, so the shared stream contends for the same actuator
	// and interleaved read/write streams keep paying seeks.
	head    atomic.Int64
	stats   Stats
	crashed atomic.Bool
	plan    FaultPlan
	writes  int64 // total write requests issued (for fault triggers)
	// sharedReads/sharedBytes count ReadAtShared traffic; they are
	// separate atomics (not s.stats fields) so shared reads never touch
	// the mutex. Stats() folds them in. sharedElapsed accumulates the
	// shared stream's modeled service time, so shared reads pay the
	// same seek/rotation/transfer costs as locked ones and benchmark
	// shapes survive the lock-free read path.
	sharedReads   int64
	sharedBytes   int64
	sharedElapsed int64 // nanoseconds
	// unsynced records the pre-image of every write since the last
	// completed Sync, newest last, so a crash can roll writes back to a
	// torn prefix. Maintained only while plan.TornHistory > 0.
	unsynced []preImage
	// syncDelay is a real (wall-clock) latency each Sync sleeps for,
	// modeling a device cache flush. Zero by default; it exists so
	// group-commit benchmarks and tests have an actual sync cost to
	// amortize. It does not advance the virtual clock (stats.Elapsed).
	syncDelay time.Duration
}

// preImage remembers what one write overwrote, so the crash handler can
// revoke the write's suffix (or all of it).
type preImage struct {
	off   int64
	prior []byte // contents before the write
	fresh []byte // what the write put there (re-applied up to the tear)
}

var _ Disk = (*Sim)(nil)

// NewSim returns a simulated disk of the given capacity using geometry
// g. Capacity is rounded down to a whole number of sectors.
func NewSim(capacity int64, g Geometry) *Sim {
	capacity -= capacity % SectorSize
	if capacity < 0 {
		capacity = 0
	}
	return &Sim{geom: g, store: make([]byte, capacity)}
}

// NewMem returns a simulated disk with no service-time model, useful
// for unit tests that only care about contents.
func NewMem(capacity int64) *Sim {
	return NewSim(capacity, Geometry{})
}

// FromImage returns a simulated disk whose initial contents are a copy
// of img, using geometry g. The image length is rounded down to whole
// sectors, like NewSim.
func FromImage(img []byte, g Geometry) *Sim {
	s := NewSim(int64(len(img)), g)
	copy(s.store, img)
	return s
}

// SetFaultPlan installs a fault-injection plan. It may be called at any
// time; counters that have already passed a trigger do not re-fire.
func (s *Sim) SetFaultPlan(p FaultPlan) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.plan = p
}

// Size returns the capacity of the device in bytes.
func (s *Sim) Size() int64 {
	return int64(len(s.store))
}

// Stats returns a snapshot of the operation counters.
func (s *Sim) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Reads += atomic.LoadInt64(&s.sharedReads)
	st.BytesRead += atomic.LoadInt64(&s.sharedBytes)
	st.Elapsed += time.Duration(atomic.LoadInt64(&s.sharedElapsed))
	return st
}

// Crashed reports whether a simulated crash has been triggered.
func (s *Sim) Crashed() bool {
	return s.crashed.Load()
}

// Crash triggers an immediate simulated crash: all subsequent I/O fails
// with ErrCrashed until Image/Reopen is used to recover the contents.
// With FaultPlan.TornHistory set, un-synced writes may be rolled back
// to torn prefixes, as for a crash triggered by CrashAfterWrites.
//
// Crash rewrites medium contents in place (the torn-history rewind), so
// callers that issue lock-free ReadAtShared requests must quiesce them
// before crashing, exactly as they would have to stop DMA before
// pulling the power on real hardware.
func (s *Sim) Crash() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.crashed.Store(true)
	s.tearHistoryLocked()
}

// tearHistoryLocked deterministically revokes suffixes of the writes
// still in flight (issued since the last completed Sync), modeling a
// device that reorders and loses cached writes at power failure. The
// last plan.TornHistory un-synced writes are eligible; each is kept
// whole, torn to a sector prefix, or revoked entirely, per an RNG
// seeded with plan.TornSeed.
func (s *Sim) tearHistoryLocked() {
	if s.plan.TornHistory <= 0 || len(s.unsynced) == 0 {
		s.unsynced = nil
		return
	}
	window := s.unsynced
	if len(window) > s.plan.TornHistory {
		window = window[len(window)-s.plan.TornHistory:]
	}
	// Rewind the whole window (newest first exactly undoes it), then
	// re-apply each write in order with its torn length, so overlapping
	// writes resolve consistently.
	for i := len(window) - 1; i >= 0; i-- {
		w := window[i]
		copy(s.store[w.off:w.off+int64(len(w.prior))], w.prior)
	}
	rng := rand.New(rand.NewSource(s.plan.TornSeed))
	for _, w := range window {
		sectors := len(w.fresh) / SectorSize
		keep := sectors
		if rng.Intn(2) == 1 {
			keep = rng.Intn(sectors) // 0 = revoked entirely
		}
		copy(s.store[w.off:w.off+int64(keep*SectorSize)], w.fresh[:keep*SectorSize])
	}
	s.unsynced = nil
}

// Image returns a copy of the current medium contents. Combined with
// Reopen it models "power back on after a crash".
func (s *Sim) Image() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	img := make([]byte, len(s.store))
	copy(img, s.store)
	return img
}

// Reopen returns a fresh, uncrashed simulated disk whose contents are
// img, using the same geometry as s. Reopen(Image()) models a power
// cycle, the step every crash/recovery test performs.
func (s *Sim) Reopen(img []byte) *Sim {
	n := NewSim(int64(len(img)), s.geom)
	copy(n.store, img)
	return n
}

func (s *Sim) checkRange(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > int64(len(s.store)) {
		return fmt.Errorf("%w: off=%d len=%d size=%d", ErrOutOfRange, off, len(p), len(s.store))
	}
	if off%SectorSize != 0 || len(p)%SectorSize != 0 {
		return fmt.Errorf("%w: off=%d len=%d", ErrUnaligned, off, len(p))
	}
	return nil
}

// ReadAt implements Disk.
func (s *Sim) ReadAt(p []byte, off int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed.Load() {
		return ErrCrashed
	}
	if err := s.checkRange(p, off); err != nil {
		return err
	}
	copy(p, s.store[off:off+int64(len(p))])
	s.stats.Reads++
	s.stats.BytesRead += int64(len(p))
	s.stats.Elapsed += s.geom.serviceTime(s.head.Swap(off+int64(len(p))), off, int64(len(p)), int64(len(s.store)))
	return nil
}

// ReadAtShared reads len(p) bytes at byte offset off without taking the
// simulator lock, modeling the concurrent request streams a real
// controller serves (pread on a raw device does not serialize against
// other readers). It does not advance the head or the virtual clock,
// and it is only safe for regions the caller knows are quiescent: the
// MVCC read path guarantees this by epoch-gating segment reuse, so no
// writer ever targets a region a live snapshot still references.
func (s *Sim) ReadAtShared(p []byte, off int64) error {
	if s.crashed.Load() {
		return ErrCrashed
	}
	// len(s.store) is immutable after NewSim, so checkRange is safe
	// without the lock.
	if err := s.checkRange(p, off); err != nil {
		return err
	}
	copy(p, s.store[off:off+int64(len(p))])
	atomic.AddInt64(&s.sharedReads, 1)
	atomic.AddInt64(&s.sharedBytes, int64(len(p)))
	prev := s.head.Swap(off + int64(len(p)))
	cost := s.geom.serviceTime(prev, off, int64(len(p)), int64(len(s.store)))
	atomic.AddInt64(&s.sharedElapsed, int64(cost))
	return nil
}

// WriteAt implements Disk.
func (s *Sim) WriteAt(p []byte, off int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed.Load() {
		return ErrCrashed
	}
	if err := s.checkRange(p, off); err != nil {
		return err
	}
	s.writes++
	if s.plan.WriteErrorEvery > 0 && s.writes%s.plan.WriteErrorEvery == 0 {
		return fmt.Errorf("%w: transient write error at request %d", ErrInjected, s.writes)
	}
	if s.plan.CrashAfterWrites > 0 && s.writes > s.plan.CrashAfterWrites {
		// Fatal write: tear the in-flight history, apply a (possibly
		// torn) prefix of the fatal write itself, then crash.
		s.crashed.Store(true)
		s.tearHistoryLocked()
		if s.plan.TornSectors >= 0 {
			n := int64(len(p))
			if s.plan.TornSectors > 0 {
				torn := int64(s.plan.TornSectors) * SectorSize
				if torn < n {
					n = torn
				}
			}
			copy(s.store[off:off+n], p[:n])
		}
		return ErrCrashed
	}
	if s.plan.TornHistory > 0 {
		pre := preImage{off: off,
			prior: make([]byte, len(p)), fresh: make([]byte, len(p))}
		copy(pre.prior, s.store[off:off+int64(len(p))])
		copy(pre.fresh, p)
		s.unsynced = append(s.unsynced, pre)
	}
	copy(s.store[off:off+int64(len(p))], p)
	s.stats.Writes++
	s.stats.BytesWritten += int64(len(p))
	s.stats.Elapsed += s.geom.serviceTime(s.head.Swap(off+int64(len(p))), off, int64(len(p)), int64(len(s.store)))
	return nil
}

// SetSyncDelay makes every subsequent Sync sleep for d of wall-clock
// time before returning, modeling a device cache flush. The sleep
// happens outside the simulator's lock, so reads and writes proceed
// during it (as they would against a real device with a flush in
// flight).
func (s *Sim) SetSyncDelay(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.syncDelay = d
}

// Sync implements Disk. The simulator applies writes synchronously, so
// Sync only accounts the request — and, as the reorder barrier, settles
// the in-flight writes a later crash could otherwise tear. With a
// SetSyncDelay configured it then sleeps, with the lock released;
// writes issued during the sleep are correctly not covered by the
// barrier (they were not in unsynced when it settled).
func (s *Sim) Sync() error {
	s.mu.Lock()
	if s.crashed.Load() {
		s.mu.Unlock()
		return ErrCrashed
	}
	s.stats.Syncs++
	s.unsynced = nil
	delay := s.syncDelay
	s.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return nil
}
