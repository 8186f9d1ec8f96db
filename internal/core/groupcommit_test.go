package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aru/internal/disk"
)

// commitUnit runs one whole recovery unit (list + one written block)
// and returns the block id.
func commitUnit(t *testing.T, d *LLD, payload byte) BlockID {
	t.Helper()
	b, err := runUnit(d, payload)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runUnit is commitUnit for goroutines other than the test's.
func runUnit(d *LLD, payload byte) (BlockID, error) {
	aru, err := d.BeginARU()
	if err != nil {
		return 0, fmt.Errorf("BeginARU: %w", err)
	}
	lst, err := d.NewList(aru)
	if err != nil {
		return 0, fmt.Errorf("NewList: %w", err)
	}
	b, err := d.NewBlock(aru, lst, NilBlock)
	if err != nil {
		return 0, fmt.Errorf("NewBlock: %w", err)
	}
	if err := d.Write(aru, b, fill(d, payload)); err != nil {
		return 0, fmt.Errorf("Write: %w", err)
	}
	if err := d.EndARU(aru); err != nil {
		return 0, fmt.Errorf("EndARU: %w", err)
	}
	return b, nil
}

// TestGroupCommitAmortization is the headline property: many
// concurrent committers share very few device syncs, while the same
// committers with their flushes serialized by the driver — one mutex
// around commit + Flush, so no two ever meet in the broker — pay one
// sync per durable commit.
func TestGroupCommitAmortization(t *testing.T) {
	const committers = 64

	run := func(serial bool) int64 {
		d, dev := newTestLLD(t, Params{})
		if !serial {
			for i := 0; i < committers; i++ {
				commitUnit(t, d, byte(i))
			}
		}
		before := dev.Stats().Syncs
		var (
			flushMu sync.Mutex
			wg      sync.WaitGroup
		)
		errs := make(chan error, committers)
		for i := 0; i < committers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if serial {
					flushMu.Lock()
					defer flushMu.Unlock()
					if _, err := runUnit(d, byte(i)); err != nil {
						errs <- err
						return
					}
				}
				errs <- d.Flush()
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("Flush (serial=%v): %v", serial, err)
			}
		}
		return dev.Stats().Syncs - before
	}

	groupSyncs := run(false)
	serialSyncs := run(true)
	if groupSyncs > 4 {
		t.Errorf("group commit: %d concurrent commits took %d syncs, want <= 4", committers, groupSyncs)
	}
	if serialSyncs < committers {
		t.Errorf("serialized flushes: %d durable commits took only %d syncs, want >= %d", committers, serialSyncs, committers)
	}
}

// gatedDisk wraps a Sim so a test can hold the device inside Sync
// (modeling a slow cache flush) and observe exactly when syncs happen.
type gatedDisk struct {
	*disk.Sim
	mu      sync.Mutex
	started chan struct{} // receives one value when a gated Sync enters
	release chan struct{} // gated Sync blocks until it is closed
	failErr error         // when non-nil, the next Sync fails with it once
}

func (g *gatedDisk) arm() (started chan struct{}, release chan struct{}) {
	started, release = make(chan struct{}, 1), make(chan struct{})
	g.mu.Lock()
	g.started, g.release = started, release
	g.mu.Unlock()
	return started, release
}

func (g *gatedDisk) disarm() {
	g.mu.Lock()
	g.started, g.release = nil, nil
	g.mu.Unlock()
}

func (g *gatedDisk) failNextSync(err error) {
	g.mu.Lock()
	g.failErr = err
	g.mu.Unlock()
}

func (g *gatedDisk) Sync() error {
	g.mu.Lock()
	started, release := g.started, g.release
	fail := g.failErr
	g.failErr = nil
	g.mu.Unlock()
	if started != nil {
		started <- struct{}{}
		<-release
	}
	if fail != nil {
		return fail
	}
	return g.Sim.Sync()
}

func newGatedLLD(t *testing.T, p Params) (*LLD, *gatedDisk) {
	t.Helper()
	if p.Layout.BlockSize == 0 {
		p.Layout = testLayout(64)
	}
	gd := &gatedDisk{Sim: disk.NewMem(p.Layout.DiskBytes())}
	d, err := Format(gd, p)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	return d, gd
}

// TestGroupCommitLateWaiterNextBatch: a committer that arrives after
// the leader sealed its batch must ride the *next* batch — it is not
// woken (and not acknowledged durable) by the in-flight sync, and its
// commit gets its own sync afterwards. This is the no-lost-wakeup /
// no-early-ack ordering contract.
func TestGroupCommitLateWaiterNextBatch(t *testing.T) {
	d, gd := newGatedLLD(t, Params{})
	commitUnit(t, d, 0xa1)

	started, release := gd.arm()
	aDone := make(chan error, 1)
	go func() { aDone <- d.Flush() }()
	<-started // leader A is inside dev.Sync, engine lock released

	// B commits and flushes while A's sync is in flight: it must join
	// the next batch, because A's batch was sealed without B's commit.
	commitUnit(t, d, 0xb2)
	var bReturned atomic.Bool
	bDone := make(chan error, 1)
	go func() {
		err := d.Flush()
		bReturned.Store(true)
		bDone <- err
	}()

	// B must not be acknowledged while A's sync has not completed.
	time.Sleep(50 * time.Millisecond)
	if bReturned.Load() {
		t.Fatal("late waiter acknowledged before the covering sync completed")
	}

	syncsBefore := gd.Sim.Stats().Syncs
	gd.disarm()
	close(release)
	if err := <-aDone; err != nil {
		t.Fatalf("Flush A: %v", err)
	}
	if err := <-bDone; err != nil {
		t.Fatalf("Flush B: %v", err)
	}
	// B's batch ran its own sync after A's.
	if got := gd.Sim.Stats().Syncs - syncsBefore; got < 2 {
		t.Errorf("expected A's and B's batches to sync separately, got %d syncs", got)
	}

	// And B's unit is actually durable: reopen the image.
	d2, err := Open(disk.FromImage(gd.Sim.Image(), disk.Geometry{}), Params{})
	if err != nil {
		t.Fatalf("Open after flushes: %v", err)
	}
	defer d2.Close()
	buf := make([]byte, d2.BlockSize())
	// The second unit's block is the one created last; find it by
	// scanning both units' payloads.
	found := false
	for _, id := range []BlockID{1, 2, 3, 4} {
		if err := d2.Read(0, id, buf); err == nil && buf[0] == 0xb2 {
			found = true
		}
	}
	if !found {
		t.Error("late waiter's unit not durable after its batch completed")
	}
}

// TestGroupCommitDrainOnCheckpoint: Checkpoint must wait out an
// in-flight batch (whose leader holds no engine lock during device
// I/O) before taking its serial flush+checkpoint — never interleave
// with it.
func TestGroupCommitDrainOnCheckpoint(t *testing.T) {
	d, gd := newGatedLLD(t, Params{})
	commitUnit(t, d, 0x11)

	started, release := gd.arm()
	flushDone := make(chan error, 1)
	go func() { flushDone <- d.Flush() }()
	<-started

	var ckptReturned atomic.Bool
	ckptDone := make(chan error, 1)
	go func() {
		err := d.Checkpoint()
		ckptReturned.Store(true)
		ckptDone <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if ckptReturned.Load() {
		t.Fatal("Checkpoint completed while a batch sync was still in flight")
	}

	gd.disarm()
	close(release)
	if err := <-flushDone; err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := <-ckptDone; err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
}

// TestGroupCommitDrainOnClose: same contract for Close.
func TestGroupCommitDrainOnClose(t *testing.T) {
	d, gd := newGatedLLD(t, Params{})
	commitUnit(t, d, 0x22)

	started, release := gd.arm()
	flushDone := make(chan error, 1)
	go func() { flushDone <- d.Flush() }()
	<-started

	var closeReturned atomic.Bool
	closeDone := make(chan error, 1)
	go func() {
		err := d.Close()
		closeReturned.Store(true)
		closeDone <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if closeReturned.Load() {
		t.Fatal("Close completed while a batch sync was still in flight")
	}

	gd.disarm()
	close(release)
	if err := <-flushDone; err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := <-closeDone; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := d.Flush(); !errors.Is(err, ErrClosed) {
		t.Errorf("Flush after Close: got %v, want ErrClosed", err)
	}
}

// TestGroupCommitSealedSegmentExcluded (whitebox): while a sealed
// segment's batch is in flight, the segment is neither reusable nor a
// cleaning victim, and its blocks stay readable from the retained
// image.
func TestGroupCommitSealedSegmentExcluded(t *testing.T) {
	d, gd := newGatedLLD(t, Params{})
	b := commitUnit(t, d, 0x33)

	started, release := gd.arm()
	flushDone := make(chan error, 1)
	go func() { flushDone <- d.Flush() }()
	<-started // leader in dev.Sync, d.mu free, entry claimed

	d.mu.Lock()
	if len(d.sealed) == 0 {
		d.mu.Unlock()
		t.Fatal("no sealed segment while the batch sync is in flight")
	}
	e := d.sealed[0]
	if !e.claimed {
		t.Errorf("in-flight entry not claimed")
	}
	if d.segReusable(e.idx) {
		t.Errorf("sealed-but-unsynced segment %d is reusable", e.idx)
	}
	if d.cleanable(e.idx) {
		t.Errorf("sealed-but-unsynced segment %d is cleanable", e.idx)
	}
	d.mu.Unlock()

	// Reads of the sealed segment's blocks are served from the
	// retained in-memory image while the device write is pending.
	buf := make([]byte, d.BlockSize())
	if err := d.Read(0, b, buf); err != nil {
		t.Fatalf("Read during in-flight batch: %v", err)
	}
	if buf[0] != 0x33 {
		t.Errorf("read from sealed segment: got %#x, want 0x33", buf[0])
	}

	gd.disarm()
	close(release)
	if err := <-flushDone; err != nil {
		t.Fatalf("Flush: %v", err)
	}
	d.mu.Lock()
	if len(d.sealed) != 0 {
		t.Errorf("sealed queue not drained after batch completion: %d entries", len(d.sealed))
	}
	d.mu.Unlock()
}

// TestGroupCommitInlineSealBehindClaim: a segment that fills up and is
// written inline while a batch's sync is in flight queues behind the
// leader's claim. The leader's sync may have run before that write, so
// the batch must not retire it: it stays queued, written, until the
// next durability point syncs again.
func TestGroupCommitInlineSealBehindClaim(t *testing.T) {
	d, gd := newGatedLLD(t, Params{})
	commitUnit(t, d, 0x51)

	started, release := gd.arm()
	flushDone := make(chan error, 1)
	go func() { flushDone <- d.Flush() }()
	<-started // leader in dev.Sync, d.mu free, its entry claimed

	// Fill the segment until it is sealed and written under the lock.
	before := d.stats.ChunksWritten.Load() // live: Stats() lags a publish
	lst, err := d.NewList(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; d.stats.ChunksWritten.Load() == before; i++ {
		b, err := d.NewBlock(0, lst, NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(0, b, fill(d, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	d.mu.Lock()
	if n := len(d.sealed); n != 2 || !d.sealed[0].claimed || d.sealed[1].claimed || !d.sealed[1].written {
		t.Errorf("while the batch syncs: queue of %d, want the claimed entry and a written, unclaimed one behind it", n)
	}
	d.mu.Unlock()

	gd.disarm()
	close(release)
	if err := <-flushDone; err != nil {
		t.Fatalf("Flush: %v", err)
	}
	d.mu.Lock()
	if n := len(d.sealed); n != 1 || d.sealed[0].claimed || !d.sealed[0].written || d.sealed[0].bld != nil {
		t.Errorf("after the batch: queue of %d, want only the inline segment, written, its builder released", n)
	}
	d.mu.Unlock()

	syncs := gd.Sim.Stats().Syncs
	if err := d.Flush(); err != nil {
		t.Fatalf("second Flush: %v", err)
	}
	if got := gd.Sim.Stats().Syncs - syncs; got != 1 {
		t.Errorf("second Flush ran %d syncs, want 1", got)
	}
	d.mu.Lock()
	if len(d.sealed) != 0 {
		t.Errorf("queue not drained by the second Flush: %d entries", len(d.sealed))
	}
	d.mu.Unlock()
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitSyncFailureRetry: a failed dev.Sync must leave the
// broker retryable — the sealed segment stays queued with its device
// write intact, no commit is acknowledged durable, and the next Flush
// re-syncs without rewriting the data.
func TestGroupCommitSyncFailureRetry(t *testing.T) {
	d, gd := newGatedLLD(t, Params{})
	commitUnit(t, d, 0x44)

	syncErr := fmt.Errorf("injected sync failure")
	gd.failNextSync(syncErr)
	err := d.Flush()
	if err == nil || !strings.Contains(err.Error(), "lld: sync") || !errors.Is(err, syncErr) {
		t.Fatalf("Flush with failing sync: got %v, want wrapped injected error", err)
	}

	d.mu.Lock()
	if len(d.sealed) != 1 {
		d.mu.Unlock()
		t.Fatalf("after failed sync: %d sealed entries, want 1 (retryable)", len(d.sealed))
	}
	if !d.sealed[0].written {
		t.Errorf("after failed sync: sealed entry lost its written flag")
	}
	if d.sealed[0].claimed {
		t.Errorf("after failed sync: sealed entry still claimed")
	}
	d.mu.Unlock()

	writesBefore := gd.Sim.Stats().Writes
	syncsBefore := gd.Sim.Stats().Syncs
	if err := d.Flush(); err != nil {
		t.Fatalf("retry Flush: %v", err)
	}
	st := gd.Sim.Stats()
	if st.Writes != writesBefore {
		t.Errorf("retry rewrote data: %d extra writes", st.Writes-writesBefore)
	}
	if st.Syncs != syncsBefore+1 {
		t.Errorf("retry ran %d syncs, want exactly 1", st.Syncs-syncsBefore)
	}
	d.mu.Lock()
	if len(d.sealed) != 0 {
		t.Errorf("sealed queue not drained after successful retry")
	}
	d.mu.Unlock()

	// The unit survives a reopen (the retry's sync made it durable).
	d2, err := Open(disk.FromImage(gd.Sim.Image(), disk.Geometry{}), Params{})
	if err != nil {
		t.Fatalf("Open after retry: %v", err)
	}
	defer d2.Close()
	if got := d2.Stats().RecoveredARUs; got != 1 {
		t.Errorf("recovered %d committed ARUs, want 1", got)
	}
}
