package core

import (
	"fmt"
	"sync"
	"time"

	"aru/internal/obs"
	"aru/internal/seg"
)

// Durability (DESIGN.md §11). "Sealed" means chunk sealed: a durability
// point seals what the open segment holds as its next chunk and leaves the
// segment open; only a full segment is retired. A sealed chunk lives one
// life, whoever sealed it: sealed (sealChunk, log.go — the chunk waits in
// its segment's builder, on d.sealed) → written (writeSealed +
// releaseImage — the chunk is on the device, the entry keeps only what a
// sync will release) → synced (syncDev + retire — reuse quarantines lift,
// durable acks go out). The broker leader drives it with d.mu released,
// writing chunk k out of the builder while writers fill chunk k+1 below
// it in the same buffer, which are disjoint bytes. Two locked paths
// remain: ensureRoom on a full segment seals and writes under the lock
// and leaves the sync to the next round, and pickSeg's last resort
// (flushQueue) syncs under it before it reports a full log.
//
// Group commit: concurrent durability callers — Flush, CommitDurable,
// and the network server's per-session syncs — enqueue on a commit
// broker instead of each paying a full device sync under d.mu. One
// caller per batch becomes the leader: it seals the current partial
// segment under d.mu, claims everything queued, then performs the
// device writes and a single sync with d.mu released, and finally
// wakes the whole batch. Before the cutoff it holds the batch open for
// the committers the last batch had (commitBroker). Maintenance —
// checkpoints and the cleaner — runs between operations as the leader
// too (lead, leadRound).

// gcBatch is one group-commit batch: the set of durability callers
// woken together by one leader pass. All fields except syncDur are
// guarded by the broker mutex; syncDur is written by the (single)
// leader with the broker mutex released and read back under it after
// the leader finishes.
type gcBatch struct {
	joiners int // callers that joined before the cutoff
	done    bool
	err     error
	syncDur time.Duration // measured cost of this batch's device sync
}

// commitBroker serializes batch leadership and parks waiters.
//
// Protocol: force() joins the pending batch (creating it if needed)
// and loops under the broker mutex — if its batch is done it returns
// the batch error; if no leader is active it becomes the leader and
// runs the batch; otherwise it waits on the condvar. The leader's
// first action (under d.mu) is the cutoff: it clears pending so later
// arrivals form the *next* batch, because their commits may not be
// sealed into this one. Completion sets done under the broker mutex
// and broadcasts, so a waiter can never miss the wakeup: it re-checks
// done before every wait.
//
// Holding the batch open: a leader that cut off the instant it was
// elected would catch only the committers whose EndARU already landed,
// and under steady concurrent load batches would alternate at half
// size. So the leader first waits until its batch has as many joiners
// as the last batch had, or until the window runs out, whichever comes
// first. Each joiner signals joined, a cond of its own, so the batch
// waiters parked on cond stay parked. The window is one timer, re-armed
// per wait; its callback ends a wait only while one runs, so a stale
// fire can only end a later wait early, which is the same as not
// waiting. A lone committer never waits (lastJoiners stays 1), and a
// leader whose joiners are already in never arms the timer; the first
// wait makes it, so an engine whose committers never meet allocates
// none.
//
// Leadership alternates between batches and lead's callers
// (maintenance, Checkpoint, Clean, Close) while both wait. A caller
// that finds leadership free goes straight back into the broker and
// wins every race against the waiter it just woke, so without the
// hand-over either side could starve the other. A batch that completes
// with lead callers waiting hands over to them (maintNext); a lead
// caller that finishes with a batch pending hands over to it
// (batchNext). A lead caller that queues also ends a leader's wait for
// joiners: a committer waiting there cannot join.
type commitBroker struct {
	mu          sync.Mutex
	cond        sync.Cond // batch waiters and lead's callers
	pending     *gcBatch  // batch the next force() joins; nil until someone does
	leading     bool      // a batch or a lead caller holds leadership
	leadWaiters int       // callers waiting in lead
	maintNext   bool      // leadership goes to a lead caller next
	batchNext   bool      // leadership goes to the pending batch next

	joined      sync.Cond   // the leader waiting for joiners
	window      *time.Timer // ends that wait when it fires; made by the first wait
	waiting     bool        // the leader is waiting on joined
	expired     bool        // the window ran out during the current wait
	windowEnds  int         // waits the window ended (read by tests)
	lastJoiners int
	lastSyncDur time.Duration
}

// batchWindow caps the leader's wait for joiners: the window is a
// quarter of the last observed sync cost, never more than this. A
// joiner ends the wait sooner; the window runs out only when a
// committer of the last batch does not come back.
const batchWindow = time.Millisecond

// minWindow is the shortest window worth waiting out: parking the leader
// and waking it take microseconds, so a shorter wait would last as long
// as the joiner takes to come, whatever the window says. A leader whose
// window is shorter (a device whose sync is nearly free) does not wait.
const minWindow = 10 * time.Microsecond

// init ties the broker's conds to its mutex.
func (b *commitBroker) init() {
	b.cond.L = &b.mu
	b.joined.L = &b.mu
}

// expire is the window timer's callback: it ends the leader's wait, if
// one is running.
func (b *commitBroker) expire() {
	b.mu.Lock()
	if b.waiting {
		b.expired = true
		b.joined.Signal()
	}
	b.mu.Unlock()
}

// awaitJoiners holds the leader's batch open until as many committers
// joined it as joined the last batch, or the window runs out. Caller
// holds b.mu and leads.
func (b *commitBroker) awaitJoiners(bat *gcBatch) {
	if bat.joiners >= b.lastJoiners {
		return
	}
	window := min(b.lastSyncDur/4, batchWindow)
	if window < minWindow {
		return
	}
	b.waiting, b.expired = true, false
	if b.window == nil {
		b.window = time.AfterFunc(window, b.expire)
	} else {
		b.window.Reset(window)
	}
	for bat.joiners < b.lastJoiners && !b.expired && b.leadWaiters == 0 {
		b.joined.Wait()
	}
	if b.expired {
		b.windowEnds++
	} else {
		b.window.Stop()
	}
	b.waiting = false
}

// sealedSeg is one sealed chunk no device sync has covered yet. Until it
// is written its image (img) waits in its segment's builder (bld), which
// therefore cannot be recycled; once written it keeps only what the
// covering sync releases: the commit stamps to acknowledge, and — by
// staying queued — the quarantine of the segments its promotion freed
// (segFreeSeq). written survives a failed sync so the retry does not
// rewrite the data. The queue of these entries (d.sealed) is the only
// record of either wait: heldBuilder and segReusable read it.
type sealedSeg struct {
	idx     int          // segment index on the device
	seq     uint64       // log sequence number in the chunk header
	bld     *seg.Builder // the segment's builder, which owns img
	epoch   uint64       // d.epoch when bld became the open builder (bldEpoch)
	img     []byte       // sealed chunk (aliases bld's buffer); nil once released
	off     int64        // device offset of img: it ends where the chunk above begins
	first   bool         // chunk 1 of its segment
	commits int          // commit records sealed into the chunk
	stamps  []commitStamp
	written bool // device write completed
	claimed bool // the in-flight leader is writing/syncing it
}

// heldBuilder returns the builder of retired segment s while a queued
// entry holds an unwritten chunk image in it — the records that point
// into s are read from there until then — and nil otherwise. Caller
// holds d.mu.
func (d *LLD) heldBuilder(s int) *seg.Builder {
	for _, e := range d.sealed {
		if e.idx == s && e.img != nil && e.bld != d.builder {
			return e.bld
		}
	}
	return nil
}

// forceCommit makes everything committed so far durable through the
// group-commit broker and returns once the covering batch completes.
func (d *LLD) forceCommit() error {
	b := &d.gc
	b.mu.Lock()
	if b.pending == nil {
		b.pending = new(gcBatch)
	}
	bat := b.pending
	bat.joiners++
	if b.waiting {
		b.joined.Signal()
	}
	due := false
	for !bat.done {
		if b.leading || b.maintNext {
			b.cond.Wait()
			continue
		}
		b.leading, b.batchNext = true, false
		b.awaitJoiners(bat)
		b.mu.Unlock()
		var err error
		due, err = d.leadRound(bat)
		b.mu.Lock()
		bat.err = err
		bat.done = true
		b.leading = false
		b.maintNext = b.leadWaiters > 0
		b.lastJoiners = bat.joiners
		if bat.syncDur > 0 {
			b.lastSyncDur = bat.syncDur
		}
		b.cond.Broadcast()
	}
	err := bat.err
	b.mu.Unlock()
	if due {
		d.maintain()
	}
	return err
}

// leadRound runs one round as the broker leader: a group-commit batch
// (bat non-nil) or a maintenance round (bat nil). Under d.mu: the cutoff,
// the seal, the claim of the whole queue and, for maintenance, the
// checkpoint record's gather. With d.mu released: the chunks' writes and
// sync, then the record's write and the publish barrier. Under d.mu
// again: the chunks retire and the record installs. The round's
// seg-flush and device-sync spans parent on its batch span. It returns
// whether maintenance is due; while a unit pins the replay window a
// maintenance round writes no record and returns ErrARUActive.
func (d *LLD) leadRound(bat *gcBatch) (due bool, err error) {
	batch := d.obs.Start(obs.SpanCommitBatch, obs.SpanContext{})
	d.mu.Lock()
	if bat != nil {
		// Cutoff. Everything sealed below is covered by this batch; a
		// caller that arrives after this point joins the next batch (its
		// commits may still be in the fresh builder when we seal).
		b := &d.gc
		b.mu.Lock()
		if b.pending == bat {
			b.pending = nil
		}
		b.mu.Unlock()
		if d.closed {
			d.mu.Unlock()
			return false, ErrClosed
		}
	}
	d.pubSafe = bat == nil // between operations: a pick may publish
	// A full log only fails the next operation that needs log space; the
	// round still makes what is sealed durable, and its checkpoint is
	// what frees some.
	_ = d.seal()
	// Claim the queue: the chunk just sealed, every chunk an inline seal
	// wrote since the last sync, and whatever a failed round left behind.
	// Only one leader runs at a time, so nothing is claimed yet. Chunks
	// sealed from here on queue behind the claim, and this round's sync —
	// which may run before their write — does not retire them. The work
	// slice is the engine's reusable scratch: only the leader touches it,
	// so it may be carried across the device I/O below with d.mu released.
	work := append(d.gcWork[:0], d.sealed...)
	d.gcWork = work
	var ck ckptJob
	if bat == nil {
		ck, err = d.gatherCkpt()
	}
	d.pubSafe = false
	if len(work) == 0 && ck.buf == nil {
		// Every device write of the log is a queued entry until a sync
		// covers it: an empty queue means nothing is unsynced.
		d.publishLocked()
		d.mu.Unlock()
		return false, err
	}
	for _, e := range work {
		e.claimed = true
	}
	d.batchSeq++
	batchID := d.batchSeq
	// Publish the sealed state before releasing the lock: readers that
	// race the round's I/O must already see the sealed images (and the
	// promoted records the seal produced).
	d.publishLocked()
	d.mu.Unlock()

	// Device I/O with d.mu released: writers go on filling the open
	// segment below the claimed chunks, and readers proceed, while the
	// device spins.
	var (
		ioErr, ckErr error
		synced       bool
		syncSp       obs.Active
		syncEnd      time.Duration
	)
	for _, e := range work {
		if ioErr = d.writeSealed(e, batch.Ctx()); ioErr != nil {
			break
		}
	}
	if ioErr == nil && len(work) > 0 {
		at := syncBatch
		if bat == nil {
			at = syncQueue
		}
		syncSp = d.obs.Start(obs.SpanDeviceSync, batch.Ctx())
		t0 := time.Now()
		if synced, ioErr = d.syncDev(at); synced {
			syncEnd = d.obs.Now()
			if bat != nil {
				bat.syncDur = time.Since(t0)
			}
		}
	}
	if ioErr == nil && ck.buf != nil {
		ckErr = d.writeCkpt(ck)
	}

	d.mu.Lock()
	defer d.mu.Unlock()
	defer d.publishLocked()
	for i, e := range work {
		e.claimed = false
		d.releaseImage(e)
		work[i] = nil
	}
	if ioErr == nil {
		commits := d.retire(len(work), batchID, synced)
		d.lastBatch.Store(batchID)
		if bat != nil {
			d.stats.CommitBatches++
			d.stats.BatchedCommits += int64(commits)
			d.obs.Observe(obs.HistCommitBatch, time.Duration(commits))
		}
		if synced {
			syncSp.EndAt(syncEnd, 0, d.syncSeq, 0) // the sync's id is assigned by retire
		}
		batch.End(0, batchID, uint64(commits))
		ioErr = ckErr
	}
	if ioErr != nil {
		// A failed write keeps every entry queued — written ones only
		// await a sync, the others keep serving reads from their image —
		// and no commit is acknowledged durable (every waiter of a batch
		// gets the error). A failed record took the dirty sets with it,
		// so the next is a base; its bytes may still reach the disk, and
		// recovery takes the newer region head, so the base is stamped
		// past it (TestFailedCheckpointOrphanLosesToNextBase).
		if ck.buf != nil {
			d.ckptBase, d.ckptTS = true, ck.ts
			d.segsSinceC += ck.segs
			ck.sp.End(0, 0, 0) // Arg1 0: the record failed
		}
		return false, ioErr
	}
	if ck.buf != nil {
		d.installCkpt(ck)
	}
	ckptDue, cleanDue := d.maintDue()
	return ckptDue || cleanDue, err
}

// lead makes the caller the broker leader for maintenance, waiting out
// the round in flight; unlead hands leadership back.
func (d *LLD) lead() {
	b := &d.gc
	b.mu.Lock()
	b.leadWaiters++
	if b.waiting {
		b.joined.Signal()
	}
	for b.leading || b.batchNext {
		b.cond.Wait()
	}
	b.leadWaiters--
	b.leading, b.maintNext = true, false
	b.mu.Unlock()
}

func (d *LLD) unlead() {
	b := &d.gc
	b.mu.Lock()
	b.leading = false
	b.batchNext = b.pending != nil
	b.cond.Broadcast()
	b.mu.Unlock()
}

// writeSealed puts e's chunk on the device, unless an earlier attempt
// already did: the log's only segment write. It touches only e and the
// device, so the batch leader runs it with d.mu released on the entries
// it claimed; everyone else holds d.mu. parent is the seg-flush span's
// (the batch, for a leader).
func (d *LLD) writeSealed(e *sealedSeg, parent obs.SpanContext) error {
	if e.written {
		return nil
	}
	sp := d.obs.Start(obs.SpanSegFlush, parent)
	if err := d.dev.WriteAt(e.img, e.off); err != nil {
		return fmt.Errorf("lld: writing segment %d: %w", e.idx, err)
	}
	e.written = true
	sp.End(0, uint64(e.idx), e.seq)
	return nil
}

// releaseImage is the bookkeeping half of sealed → written: a written
// entry is counted and gives up its image. A retired segment's builder
// leaves with the last image in it (its blocks are read from the device
// or the cache from the next publish on), into the current epoch's
// retire-set, since published snapshots may still read it. A no-op on an
// entry not yet written or already released. Caller holds d.mu.
func (d *LLD) releaseImage(e *sealedSeg) {
	if !e.written || e.img == nil {
		return
	}
	if e.first {
		d.stats.SegmentsWritten++
	}
	d.stats.ChunksWritten++
	d.stats.SegmentBytesWritten += int64(len(e.img))
	b := e.bld
	e.bld, e.img = nil, nil
	if b != d.builder && d.heldBuilder(e.idx) == nil {
		d.retireBuilder(b, e.epoch)
	}
}

// writeQueued writes every queued entry that still awaits its device
// write, in seal order — normally the one just sealed; more after a
// failed write. Entries an in-flight leader has claimed are the
// leader's to write. Caller holds d.mu.
func (d *LLD) writeQueued() error {
	for _, e := range d.sealed {
		if e.claimed {
			continue
		}
		if err := d.writeSealed(e, obs.SpanContext{}); err != nil {
			return err
		}
		d.releaseImage(e)
	}
	return nil
}

// syncPoint names the durability point syncDev runs for; only the fault
// hooks tell them apart.
type syncPoint int

const (
	syncBatch   syncPoint = iota // a group-commit batch
	syncQueue                    // a maintenance round's, or pickSeg's last resort
	syncBarrier                  // the checkpoint publish barrier
)

// syncDev is the log's only device sync: it forces every completed
// write to stable storage and reports whether the sync ran — false
// without an error only under a fault hook, each of which is exactly one
// skipped sync. Callers skip the call when nothing is unsynced. It
// touches only the device, so the batch leader calls it with d.mu
// released.
func (d *LLD) syncDev(at syncPoint) (bool, error) {
	if f := d.params.Faults; f != nil {
		switch {
		case f.NoSyncOnFlush && at != syncBarrier,
			f.AckBeforeSync && at == syncBatch,
			f.TornDeltaPublish && at == syncBarrier:
			return false, nil
		}
	}
	if err := d.dev.Sync(); err != nil {
		return false, fmt.Errorf("lld: sync: %w", err)
	}
	return true, nil
}

// retire ends the life of the first n queued entries — all written —
// once the sync covering their writes has returned (synced is false
// only under a fault hook): the entries leave the queue, so the segments
// their promotions emptied may be rewritten, their commits are
// acknowledged durable under batchID (0 = pickSeg's locked flush) and the sync's
// id, and the entries go back to the pool. Entries retire in seal order only: one sealed behind a
// segment not yet durable would be cut off by recovery at the sequence
// hole, whatever the device holds of it. It returns the number of
// commit records retired. Caller holds d.mu.
func (d *LLD) retire(n int, batchID uint64, synced bool) (commits int) {
	var syncID uint64
	if synced {
		d.syncSeq++
		syncID = d.syncSeq
	}
	for _, e := range d.sealed[:n] {
		commits += e.commits
		d.emitStampsDurable(e.stamps, batchID, syncID)
		d.putSealed(e)
	}
	m := copy(d.sealed, d.sealed[n:])
	clear(d.sealed[m:])
	d.sealed = d.sealed[:m]
	return commits
}

// flushQueue writes, syncs and retires everything queued, under the
// lock: pickSeg's last resort before ErrNoSpace, the one sync left under
// d.mu. Caller holds d.mu with the broker idle (brokerBusy).
func (d *LLD) flushQueue() error {
	if err := d.writeQueued(); err != nil {
		return err
	}
	if len(d.sealed) == 0 {
		return nil // nothing unsynced
	}
	synced, err := d.syncDev(syncQueue)
	if err != nil {
		return err
	}
	d.retire(len(d.sealed), 0, synced)
	return nil
}

// brokerBusy reports whether a leader holds claimed entries — i.e. is
// performing device I/O with d.mu released. A leader claims the whole
// queue, and later seals queue behind the claim, so the head entry
// tells. pickSeg's locked flush must not run beside it. Caller holds
// d.mu.
func (d *LLD) brokerBusy() bool {
	return len(d.sealed) > 0 && d.sealed[0].claimed
}

// takeBuilder returns a spare segment builder (or a fresh one).
// Caller holds d.mu.
func (d *LLD) takeBuilder() *seg.Builder {
	if b, ok := d.spareBuilders.get(); ok {
		return b
	}
	return seg.NewBuilder(d.params.Layout)
}

// retireBuilder retires the builder of a retired segment whose chunks are
// all written; since is d.epoch when it became the open builder. Only
// publishLocked makes snapshots, and each advances d.epoch, so while
// d.epoch still equals since no snapshot — and no reader — can hold the
// builder, and it is recycled at once: a cleaner batch fills segment
// after segment under d.mu without publishing. Otherwise published
// epochs may still read its buffer, and it waits in the current epoch's
// retire-set until that drains. Caller holds d.mu.
func (d *LLD) retireBuilder(b *seg.Builder, since uint64) {
	if since == d.epoch {
		b.Reset()
		d.spareBuilders.put(b)
		return
	}
	d.ret.builders = append(d.ret.builders, b)
}
