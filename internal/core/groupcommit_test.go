package core

import (
	"errors"
	"fmt"
	"runtime"
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
	before := lockedStats(d).ChunksWritten // Stats() lags a publish
	lst, err := d.NewList(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; lockedStats(d).ChunksWritten == before; i++ {
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

// chunkCounter is a device that counts the writes at or above from: on
// an engine's device, the log's chunk writes.
type chunkCounter struct {
	disk.Disk
	from          int64
	writes, bytes atomic.Int64
}

func (c *chunkCounter) WriteAt(p []byte, off int64) error {
	if err := c.Disk.WriteAt(p, off); err != nil {
		return err
	}
	if off >= c.from {
		c.writes.Add(1)
		c.bytes.Add(int64(len(p)))
	}
	return nil
}

// TestChunkCountersMatchDevice checks ChunksWritten and
// SegmentBytesWritten against the device: three writers with
// interleaved flushes write chunks both as the batch leader, with d.mu
// released, and in inline seals under it, on a log small enough that
// the cleaner runs too.
func TestChunkCountersMatchDevice(t *testing.T) {
	p := Params{Layout: testLayout(32), CheckpointEvery: 4, CleanerLowWater: 5}
	mem := disk.NewMem(p.Layout.DiskBytes())
	if _, err := Format(mem, p); err != nil {
		t.Fatalf("Format: %v", err)
	}
	dev := &chunkCounter{Disk: mem, from: p.Layout.SegOff(0)}
	d, err := Open(dev, p)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer d.Close()

	const writers, units = 3, 400
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lst, err := d.NewList(0)
			if err != nil {
				errs <- err
				return
			}
			var blocks [2]BlockID
			for i := range blocks {
				if blocks[i], err = d.NewBlock(0, lst, NilBlock); err != nil {
					errs <- err
					return
				}
			}
			for i := 0; i < units; i++ {
				a, err := d.BeginARU()
				if err == nil {
					for _, b := range blocks {
						if err = d.Write(a, b, fill(d, byte(w+i))); err != nil {
							break
						}
					}
				}
				if err == nil {
					err = d.EndARU(a)
				}
				if err == nil && i%(w+2) == 0 {
					err = d.Flush()
				}
				if err != nil {
					errs <- fmt.Errorf("writer %d unit %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if _, err := d.Clean(p.Layout.NumSegs); err != nil {
		t.Fatalf("Clean: %v", err)
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	st := d.Stats()
	if w, b := dev.writes.Load(), dev.bytes.Load(); st.ChunksWritten != w || st.SegmentBytesWritten != b {
		t.Fatalf("counted %d chunks of %d bytes, the device took %d writes of %d bytes",
			st.ChunksWritten, st.SegmentBytesWritten, w, b)
	}
	if st.SegmentsCleaned == 0 {
		t.Fatal("the cleaner never ran")
	}
	t.Logf("%d chunks, %d bytes, %d segments cleaned", st.ChunksWritten, st.SegmentBytesWritten, st.SegmentsCleaned)
}

// durableLoop runs one committer's loop: each unit overwrites one of
// blks with the next payload and ends with CommitDurable, until n units
// are done or an operation fails, counting each acknowledged unit in
// acks. acked is the payload of the last unit acknowledged durable,
// tried the one of the unit in flight when it stopped (equal to acked
// if none was).
func durableLoop(d *LLD, blks []BlockID, n int, buf []byte, acks *atomic.Int64) (acked, tried byte, err error) {
	for i := 0; i < n; i++ {
		tried = byte(i + 1)
		a, err := d.BeginARU()
		if err != nil {
			return acked, acked, err
		}
		buf[0] = tried
		if err := d.Write(a, blks[i%len(blks)], buf); err != nil {
			return acked, tried, err
		}
		if err := d.CommitDurable(a); err != nil {
			return acked, tried, err
		}
		acked = tried
		acks.Add(1)
	}
	return acked, tried, nil
}

// ownBlocks gives each of n committers k blocks on a list of its own.
func ownBlocks(t *testing.T, d *LLD, n, k int) [][]BlockID {
	t.Helper()
	own := make([][]BlockID, n)
	for c := range own {
		lst, err := d.NewList(0)
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < k; j++ {
			b, err := d.NewBlock(0, lst, NilBlock)
			if err != nil {
				t.Fatal(err)
			}
			own[c] = append(own[c], b)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	return own
}

// TestGroupCommitWaitEndsOnJoiner: two committers on a device whose sync
// takes 1 ms share nearly every sync, and the leader's wait for the
// second one ends when that committer joins, not when the window runs
// out. A leader that always waits out the window, or a joiner that does
// not signal, makes nearly every wait end on the window. The small log
// makes checkpoints come due between commits, so a committer goes into
// maintenance while the other leads: without the hand-over between
// batches and lead's callers it starves there, and the batches fall to
// one commit.
func TestGroupCommitWaitEndsOnJoiner(t *testing.T) {
	const committers, units = 2, 300
	d, dev := newTestLLD(t, Params{Layout: testLayout(128)})
	own := ownBlocks(t, d, committers, 4)
	dev.SetSyncDelay(time.Millisecond)
	before := lockedStats(d)

	var wg sync.WaitGroup
	errs := make(chan error, committers)
	for c := 0; c < committers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, _, err := durableLoop(d, own[c], units, make([]byte, d.BlockSize()), new(atomic.Int64))
			errs <- err
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	dev.SetSyncDelay(0)

	st := lockedStats(d)
	batches := st.CommitBatches - before.CommitBatches
	commits := st.BatchedCommits - before.BatchedCommits
	d.gc.mu.Lock()
	ends := d.gc.windowEnds
	d.gc.mu.Unlock()
	perBatch := float64(commits) / float64(batches)
	t.Logf("%d commits in %d batches (%.2f per batch), %d waits ended by the window", commits, batches, perBatch, ends)
	if perBatch < 1.9 {
		t.Errorf("%.2f commits per batch, want >= 1.9: the two committers do not share syncs", perBatch)
	}
	if int64(ends)*10 > batches {
		t.Errorf("the window ended %d waits in %d batches, want at most a tenth: the leader does not wake when its joiner arrives", ends, batches)
	}
}

// holdLeaderInWait commits a unit and starts a Flush that leads its
// batch and waits for a second joiner (the broker is told the last batch
// had two). Once that leader is in its wait with the window stopped, so
// that only a joiner or a lead caller can end it, it returns the
// channel the Flush reports on.
func holdLeaderInWait(t *testing.T, d *LLD) <-chan error {
	t.Helper()
	b := &d.gc
	for attempt := 0; attempt < 100; attempt++ {
		commitUnit(t, d, byte(attempt))
		b.mu.Lock()
		b.lastJoiners, b.lastSyncDur = 2, 4*batchWindow
		b.mu.Unlock()
		done := make(chan error, 1)
		go func() { done <- d.Flush() }()
		for {
			b.mu.Lock()
			if b.waiting && !b.expired && b.window.Stop() {
				b.mu.Unlock()
				return done
			}
			b.mu.Unlock()
			select {
			case err := <-done: // the window ended the wait first: again
				if err != nil {
					t.Fatalf("Flush: %v", err)
				}
			default:
				runtime.Gosched()
				continue
			}
			break
		}
	}
	t.Fatal("no leader caught in its wait in 100 attempts")
	return nil
}

// TestGroupCommitWaitLiveness: the leader's wait for joiners never
// wedges the engine. Checkpoint, Clean and Close arriving while a leader
// waits end the wait (a committer in maintenance cannot join), let its
// batch succeed and then run. Under real schedules, 2 and 8 committers
// on a free and on a 1 ms sync, with checkpoints and cleaner passes
// beside them and Close while they run, see no error but ErrClosed and
// every acknowledged unit after a reopen.
func TestGroupCommitWaitLiveness(t *testing.T) {
	await := func(t *testing.T, what string, ch <-chan error) error {
		t.Helper()
		select {
		case err := <-ch:
			return err
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return in 10 s: a leader waiting for joiners wedges it", what)
			return nil
		}
	}
	for _, op := range []string{"Checkpoint", "Clean", "Close"} {
		t.Run("waiting/"+op, func(t *testing.T) {
			d, _ := newTestLLD(t, Params{})
			leader := holdLeaderInWait(t, d)
			opDone := make(chan error, 1)
			go func() {
				var err error
				switch op {
				case "Checkpoint":
					err = d.Checkpoint()
				case "Clean":
					_, err = d.Clean(d.FreeSegments())
				case "Close":
					err = d.Close()
				}
				opDone <- err
			}()
			if err := await(t, "the waiting leader's Flush", leader); err != nil {
				t.Fatalf("waiting leader's Flush: %v", err)
			}
			if err := await(t, op, opDone); err != nil {
				t.Fatalf("%s: %v", op, err)
			}
			if op == "Close" {
				if err := d.Flush(); !errors.Is(err, ErrClosed) {
					t.Fatalf("Flush after Close: got %v, want ErrClosed", err)
				}
				return
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}

	for _, committers := range []int{2, 8} {
		for _, syncDelay := range []time.Duration{0, time.Millisecond} {
			name := fmt.Sprintf("committers=%d/sync=%v", committers, syncDelay)
			t.Run(name, func(t *testing.T) {
				units := 100
				if syncDelay == 0 {
					units = 4000 / committers // the 64-segment log wraps several times
				}
				d, dev := newTestLLD(t, Params{})
				own := ownBlocks(t, d, committers, 4)
				dev.SetSyncDelay(syncDelay)

				var (
					wg          sync.WaitGroup
					acks, quit  atomic.Int64
					acked, trie = make([]byte, committers), make([]byte, committers)
				)
				errs := make(chan error, committers+1)
				for c := 0; c < committers; c++ {
					wg.Add(1)
					go func(c int) {
						defer wg.Done()
						defer quit.Add(1)
						var err error
						acked[c], trie[c], err = durableLoop(d, own[c], units, make([]byte, d.BlockSize()), &acks)
						errs <- err
					}(c)
				}
				// Maintenance beside the committers until half their units
				// are acknowledged, then Close while they run. Maintenance
				// called back to back must not starve the batches: the
				// deadline is a hundred times what the loop takes here.
				half, deadline := int64(committers*units/2), time.Now().Add(30*time.Second)
				for i := 0; acks.Load() < half && quit.Load() < int64(committers); i++ {
					if time.Now().After(deadline) {
						errs <- fmt.Errorf("%d of %d units acknowledged in 30 s beside back-to-back maintenance: batches starve", acks.Load(), half)
						break
					}
					var err error
					if i%2 == 0 {
						err = d.Checkpoint()
					} else {
						_, err = d.Clean(d.FreeSegments() + 1)
					}
					if err != nil {
						errs <- fmt.Errorf("maintenance: %w", err)
						break
					}
				}
				if err := d.Close(); err != nil {
					errs <- fmt.Errorf("Close: %w", err)
				}
				wg.Wait()
				close(errs)
				for err := range errs {
					if err != nil && !errors.Is(err, ErrClosed) {
						t.Error(err)
					}
				}

				// Every acknowledged unit survives; a unit cut by Close
				// may or may not.
				d2, err := Open(disk.FromImage(dev.Image(), disk.Geometry{}), Params{})
				if err != nil {
					t.Fatalf("Open: %v", err)
				}
				defer d2.Close()
				buf := make([]byte, d2.BlockSize())
				for c := range own {
					last := map[BlockID]byte{}
					for i := 1; i <= int(trie[c]); i++ {
						if byte(i) <= acked[c] {
							last[own[c][(i-1)%len(own[c])]] = byte(i)
						}
					}
					for _, blk := range own[c] {
						if err := d2.Read(0, blk, buf); err != nil {
							t.Fatalf("Read: %v", err)
						}
						if want, ok := last[blk]; ok && buf[0] != want && buf[0] != trie[c] {
							t.Errorf("committer %d block %d reads %d, want acknowledged %d (or %d, cut by Close)", c, blk, buf[0], want, trie[c])
						}
					}
				}
			})
		}
	}
}
