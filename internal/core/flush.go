package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"aru/internal/obs"
	"aru/internal/seg"
)

// Flush makes every committed operation persistent (the
// committed→persistent transition of paper §3.1) and returns once the
// device sync covering it has completed. Shadow state of open ARUs
// stays in memory (and in already-written segments, where it is inert
// until its commit record lands).
//
// Flush goes through the group-commit broker: concurrent callers share
// one segment write and one device sync, and the engine lock is not
// held while the device works (DESIGN.md §11).
func (d *LLD) Flush() error {
	return d.FlushTraced(obs.SpanContext{})
}

// FlushTraced is Flush carrying trace context (DESIGN.md §13): the
// caller's wait in the group-commit broker is recorded as an
// engine-flush span parented on sc.
func (d *LLD) FlushTraced(sc obs.SpanContext) error {
	d.stats.Flushes.Add(1)
	sp := d.obs.Start(obs.SpanEngineFlush, sc)
	err := d.forceCommit()
	var failed uint64
	if err != nil {
		failed = 1
	}
	sp.End(0, 0, failed)
	return err
}

// Checkpoint makes everything committed durable and then writes the next
// record of the checkpoint chain, bounding recovery time and making older
// zero-live segments reusable: one maintenance round (leadRound). It
// refuses while ARUs are open (ErrARUActive): a checkpoint would cut
// their already-logged entries out of the replay window.
func (d *LLD) Checkpoint() error {
	d.lead()
	defer d.unlead()
	if d.isClosed() {
		return ErrClosed
	}
	_, err := d.leadRound(nil)
	return err
}

// ckptJob is a gathered checkpoint record on its way to installCkpt;
// buf is nil when there is nothing to write.
type ckptJob struct {
	sp      obs.Active
	buf     []byte
	region  int
	off     int64
	base    bool
	ts, seq uint64 // the record's CkptTS and FlushedSeq
	segs    int    // segsSinceC the record covers
}

// gatherCkpt gathers and encodes the next record of the incremental
// checkpoint chain (DESIGN.md §15) over the log sealed so far: normally a
// delta carrying only the block/list records dirtied since the previous
// checkpoint, encoded straight from the dirty sets (encodeDelta) and
// appended to the current region's chain; a full base in the
// other region when the chain grows past Params.CkptCompactEvery, when
// the region has no room left, or when an earlier record failed. It takes
// the dirty sets and the count of retired segments: a failed record gives
// the count back and makes the next record a base. With no open ARUs the
// persistent tables are the complete state as of FlushedSeq. Callers
// hold d.mu with every sealed chunk claimed (none is queued at mount).
func (d *LLD) gatherCkpt() (ckptJob, error) {
	if len(d.arus) != 0 {
		return ckptJob{}, fmt.Errorf("%w: cannot checkpoint with %d open ARUs", ErrARUActive, len(d.arus))
	}
	rec := seg.CkptRec{
		CkptTS:     d.ckptTS + 1,
		FlushedSeq: d.nextSeq - 1,
		NextTS:     d.ts,
		NextBlock:  d.nextBlk,
		NextList:   d.nextLst,
		NextARU:    d.nextARU,
	}
	ck := ckptJob{sp: d.obs.Start(obs.SpanCkptDelta, obs.SpanContext{}), ts: rec.CkptTS, seq: rec.FlushedSeq, segs: d.segsSinceC}
	base := d.ckptBase || d.params.CkptCompactEvery < 0 || d.ckptDepth >= d.params.CkptCompactEvery
	var buf []byte
	if !base {
		blocks, lists := d.dirtyBlocks.sorted(), d.dirtyLists.sorted()
		if len(blocks) == 0 && len(lists) == 0 && rec.FlushedSeq == d.ckptSeq {
			// Nothing changed since the previous checkpoint: the chain
			// head already covers the whole flushed log.
			d.segsSinceC = 0
			return ckptJob{}, nil
		}
		rec.PrevTS = d.ckptTS
		var err error
		if buf, err = d.encodeDelta(blocks, lists, rec); err != nil ||
			d.ckptChainOff+int64(len(buf)) > d.params.Layout.CkptRegionBytes() {
			base, buf = true, nil // no room left in the region: compact early
		}
	}
	if base {
		rec.PrevTS = 0
		rec.Base = true
		rec.Blocks = make([]seg.BlockRec, 0, d.blockTab.n)
		rec.Lists = make([]seg.ListRec, 0, d.listTab.n)
		var err error
		pmapWalk(d.blockTab.root, func(lf *blockLeaf) bool {
			if !lf.hasPersist {
				err = fmt.Errorf("lld: internal: block %d has no persistent version at checkpoint", lf.id)
			}
			rec.Blocks = append(rec.Blocks, lf.persist)
			return err == nil
		})
		pmapWalk(d.listTab.root, func(lf *listLeaf) bool {
			if !lf.hasPersist {
				err = fmt.Errorf("lld: internal: list %d has no persistent version at checkpoint", lf.id)
			}
			rec.Lists = append(rec.Lists, lf.persist)
			return err == nil
		})
		if err != nil {
			return ckptJob{}, err
		}
		sortCkptRec(&rec)
		if buf, err = seg.EncodeCkptRec(d.params.Layout, rec); err != nil {
			return ckptJob{}, fmt.Errorf("lld: encoding checkpoint: %w", err)
		}
	}
	d.dirtyBlocks.reset()
	d.dirtyLists.reset()
	d.segsSinceC = 0
	ck.buf, ck.base, ck.region, ck.off = buf, base, d.ckptRegion, d.ckptChainOff
	if base {
		ck.sp = ck.sp.As(obs.SpanCheckpoint)
		ck.region, ck.off = 1-d.ckptRegion, 0
	}
	return ck, nil
}

// encodeDelta encodes the delta record with h's header over the dirty
// sets blocks and lists, sorted and compacted: a dirty identifier still
// present in the tables is an upsert, a vanished one a deletion. The
// record is encoded as the tables are read, into one buffer sized as if
// every identifier were an upsert. Deletions follow every upsert on the
// wire, so each set's are swapped to its front as the upserts are
// encoded, in ID order, and encoded from there after the list upserts;
// the sets stay permutations of themselves. The error is Finish's: the
// record would not fit a region at all. Caller holds d.mu.
func (d *LLD) encodeDelta(blocks []BlockID, lists []ListID, h seg.CkptRec) ([]byte, error) {
	e := seg.NewCkptEnc(len(blocks), len(lists), 0)
	nb := 0
	for i, id := range blocks {
		if lf := pmapGet(d.blockTab.root, uint64(id)); lf != nil && lf.hasPersist {
			e.Block(lf.persist)
		} else {
			blocks[nb], blocks[i] = id, blocks[nb]
			nb++
		}
	}
	nl := 0
	for i, id := range lists {
		if lf := pmapGet(d.listTab.root, uint64(id)); lf != nil && lf.hasPersist {
			e.List(lf.persist)
		} else {
			lists[nl], lists[i] = id, lists[nl]
			nl++
		}
	}
	for _, id := range blocks[:nb] {
		e.DelBlock(id)
	}
	for _, id := range lists[:nl] {
		e.DelList(id)
	}
	return e.Finish(d.params.Layout, h)
}

// writeCkpt writes a gathered record and syncs the publish barrier, with
// d.mu released: the record must be durable before installCkpt lets its
// replay window be reused. Skipping that sync is the torn-delta bug
// (FaultHooks.TornDeltaPublish).
func (d *LLD) writeCkpt(ck ckptJob) error {
	if err := d.dev.WriteAt(ck.buf, d.params.Layout.CkptOff(ck.region)+ck.off); err != nil {
		return fmt.Errorf("lld: writing checkpoint: %w", err)
	}
	_, err := d.syncDev(syncBarrier)
	return err
}

// installCkpt makes a durable record the head of the chain and advances
// the watermark (ckptSeq), which frees the segments it covers. The record
// is CRC-protected and linked to its predecessor by PrevTS, so recovery
// sees all of it or cuts the chain before it. Caller holds d.mu.
func (d *LLD) installCkpt(ck ckptJob) {
	oldDepth := d.ckptDepth
	d.ckptRegion, d.ckptChainOff = ck.region, ck.off+int64(len(ck.buf))
	if d.ckptDepth++; ck.base {
		d.ckptDepth = 0
		ck.sp.End(0, ck.ts, uint64(oldDepth))
	} else {
		d.stats.CkptDeltas.Add(1)
		ck.sp.End(0, ck.ts, uint64(d.ckptDepth))
	}
	d.ckptBase, d.ckptTS, d.ckptSeq = false, ck.ts, ck.seq
	d.stats.Checkpoints.Add(1)
}

// sortCkptRec puts a base record's tables into canonical ID order so
// encodings are deterministic (a delta is gathered in that order).
func sortCkptRec(r *seg.CkptRec) {
	slices.SortFunc(r.Blocks, func(a, b seg.BlockRec) int { return cmp.Compare(a.ID, b.ID) })
	slices.SortFunc(r.Lists, func(a, b seg.ListRec) int { return cmp.Compare(a.ID, b.ID) })
}

// dirtySet is an append-only set of identifiers: marking one appends it,
// repeats and all, and the reader sorts and compacts. On the promotion
// path an append is far cheaper than a map insert. Should
// checkpoints be rare, the set compacts itself whenever it has grown by
// dirtySlack past twice its size at the last compaction, which bounds it
// at about twice the distinct identifiers.
type dirtySet[T cmp.Ordered] struct {
	ids  []T
	kept int // length after the last compaction
}

const dirtySlack = 8192

func (s *dirtySet[T]) mark(id T) {
	if len(s.ids) >= 2*s.kept+dirtySlack {
		s.sorted()
	}
	s.ids = append(s.ids, id)
}

// sorted compacts the set in place and returns it in ascending order.
func (s *dirtySet[T]) sorted() []T {
	slices.Sort(s.ids)
	s.ids = slices.Compact(s.ids)
	s.kept = len(s.ids)
	return s.ids
}

// reset empties the set, keeping its capacity for the next checkpoint.
func (s *dirtySet[T]) reset() { s.ids, s.kept = s.ids[:0], 0 }

// Close marks the instance unusable, then makes everything committed
// durable and checkpoints if no ARU is open; open ARUs are discarded,
// exactly as a crash would discard them. The mark comes first, so no
// operation lands after the final round.
func (d *LLD) Close() error {
	d.lead()
	defer d.unlead()
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	d.closed = true
	d.mu.Unlock()
	_, err := d.leadRound(nil)
	if errors.Is(err, ErrARUActive) {
		err = nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	// Publish one final epoch with the closed flag set, so lock-free
	// readers and snapshot handles acquired after this point observe
	// ErrClosed; outstanding handles turn stale.
	d.publishLocked()
	d.invalid.Store(true)
	return err
}

// isClosed reports whether Close has marked the engine closed; only the
// broker leader sets the mark, so a leader's answer holds.
func (d *LLD) isClosed() bool {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.closed
}

// Stats returns a snapshot of the operation counters, lock-free.
//
// Coherence: every counter that advances under the engine write lock is
// served from the counter image frozen into the current epoch at its
// publish point, so the returned value reflects exactly the operations
// the epoch itself reflects — no commit, flush, clean or recovery is
// ever observed half-counted. Allocation counts at its own operation
// boundary and commit at the commit's, so for an ARU creating k blocks
// per commit every snapshot satisfies k·ARUsCommitted ≤ NewBlocks ≤
// k·ARUsBegun — never a value that implies a torn epoch
// (TestStatsSnapshotCoherence and TestStatsAllocCommitCoherence pin
// this). Counters that advance outside the write lock —
// Reads, which lock-free readers bump atomically, and Flushes, counted
// at call entry — are overlaid live: monotone across calls, but they
// may already include operations newer than the epoch. SnapshotAge is a
// gauge: current epoch minus oldest unpurged epoch (0 = fully drained).
func (d *LLD) Stats() Stats {
	s := d.acquireSnap()
	if s == nil {
		// Before the first publish (mid-construction): fall back to the
		// locked path.
		d.mu.RLock()
		defer d.mu.RUnlock()
		return d.stats.snapshot()
	}
	st := s.stats
	// While s is pinned the purge sweep cannot pass it, so oldestEpoch
	// <= s.epoch and the age cannot underflow.
	st.SnapshotAge = int64(s.epoch - d.oldestEpoch.Load())
	s.release()
	st.Reads = d.stats.Reads.Load()
	st.Flushes = d.stats.Flushes.Load()
	st.EpochsPublished = d.stats.EpochsPublished.Load()
	st.SnapshotsPurged = d.stats.SnapshotsPurged.Load()
	st.PurgeRetries = d.stats.PurgeRetries.Load()
	return st
}

// Params returns the configuration the instance runs with (layout as
// read from the superblock for opened disks).
func (d *LLD) Params() Params {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.params
}

// BlockSize returns the logical block size in bytes.
func (d *LLD) BlockSize() int { return d.params.Layout.BlockSize }
