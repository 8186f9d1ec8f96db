package core

import (
	"cmp"
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

// Checkpoint flushes and then writes a snapshot of the persistent
// tables into the next checkpoint region, bounding recovery time and
// making older zero-live segments reusable. Checkpoints cannot be taken
// while ARUs are open: a checkpoint would cut their already-logged
// entries out of the replay window.
func (d *LLD) Checkpoint() error {
	d.lockDrained()
	defer d.mu.Unlock()
	defer d.publishLocked()
	if d.closed {
		return ErrClosed
	}
	d.pubSafe = true
	defer func() { d.pubSafe = false }()
	return d.checkpointLocked()
}

// checkpointLocked writes the next record of the incremental
// checkpoint chain (DESIGN.md §15): normally a delta carrying only the
// block/list records dirtied since the previous checkpoint, appended
// to the current region's chain; a full base in the other region when
// the chain grows past Params.CkptCompactEvery, when the region has no
// room left, or when the mounted image predates the chain format.
//
// Publication is atomic by construction: the record is CRC-protected
// and linked to its predecessor by PrevTS, so recovery either sees the
// whole record or cuts the chain before it — and only after the record
// is synced does the checkpoint watermark (ckptSeq) advance and unlock
// segment reuse. That sync is the publish barrier; skipping it is the
// torn-delta bug (FaultHooks.TornDeltaPublish).
//
// Callers hold d.mu with the broker idle (lockDrained, canMaintain).
func (d *LLD) checkpointLocked() error {
	sp := d.obs.Start(obs.SpanCkptDelta, obs.SpanContext{})
	// The tables must reflect exactly the flushed log: drain it — seal
	// any partial segment, write and sync whatever is queued — before
	// the checkpoint claims FlushedSeq. With no open ARUs every
	// committed record has then been promoted, so the persistent tables
	// are the complete state.
	if err := d.drainLocked(); err != nil {
		return err
	}
	if len(d.arus) != 0 {
		return fmt.Errorf("%w: cannot checkpoint with %d open ARUs", ErrARUActive, len(d.arus))
	}
	if len(d.sealed) != 0 {
		// A checkpoint over unsynced sealed segments would claim a
		// FlushedSeq the device does not yet hold.
		return fmt.Errorf("lld: internal: checkpoint with %d sealed segments pending", len(d.sealed))
	}

	rec := seg.CkptRec{
		CkptTS:     d.ckptTS + 1,
		FlushedSeq: d.nextSeq - 1,
		NextTS:     d.ts,
		NextBlock:  d.nextBlk,
		NextList:   d.nextLst,
		NextARU:    d.nextARU,
	}
	base := d.params.CkptCompactEvery < 0 || d.ckptDepth >= d.params.CkptCompactEvery
	if !base {
		// Build the delta from the dirty sets: a dirty identifier still
		// present in the tables is an upsert, a vanished one a deletion.
		// The sets come out in ID order, so the tables are gathered in
		// the canonical order the encoding wants.
		for _, id := range d.dirtyBlocks.sorted() {
			if lf := pmapGet(d.blockTab.root, uint64(id)); lf != nil && lf.hasPersist {
				rec.Blocks = append(rec.Blocks, lf.persist)
			} else {
				rec.DelBlocks = append(rec.DelBlocks, id)
			}
		}
		for _, id := range d.dirtyLists.sorted() {
			if lf := pmapGet(d.listTab.root, uint64(id)); lf != nil && lf.hasPersist {
				rec.Lists = append(rec.Lists, lf.persist)
			} else {
				rec.DelLists = append(rec.DelLists, id)
			}
		}
		if len(rec.Blocks) == 0 && len(rec.Lists) == 0 &&
			len(rec.DelBlocks) == 0 && len(rec.DelLists) == 0 &&
			rec.FlushedSeq == d.ckptSeq {
			// Nothing changed since the previous checkpoint: the chain
			// head already covers the whole flushed log.
			d.segsSinceC = 0
			return nil
		}
		rec.PrevTS = d.ckptTS
		if d.ckptChainOff+rec.WireBytes() > d.params.Layout.CkptRegionBytes() {
			base = true // no room left in the region: compact early
		}
	}
	if base {
		rec.PrevTS = 0
		rec.Base = true
		rec.Blocks = slices.Grow(rec.Blocks[:0], d.blockTab.n)
		rec.Lists = slices.Grow(rec.Lists[:0], d.listTab.n)
		rec.DelBlocks, rec.DelLists = nil, nil
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
			return err
		}
		sortCkptRec(&rec)
	}
	buf, err := seg.EncodeCkptRec(d.params.Layout, rec)
	if err != nil {
		return fmt.Errorf("lld: encoding checkpoint: %w", err)
	}
	region, off := d.ckptRegion, d.ckptChainOff
	if base {
		region, off = 1-d.ckptRegion, 0
	}
	if err := d.dev.WriteAt(buf, d.params.Layout.CkptOff(region)+off); err != nil {
		return fmt.Errorf("lld: writing checkpoint: %w", err)
	}
	// Publish barrier: the record must be durable before the watermark
	// advance below lets its replay window be reused.
	if _, err := d.syncDev(syncBarrier); err != nil {
		return err
	}
	oldDepth := d.ckptDepth
	if base {
		d.ckptRegion = region
		d.ckptChainOff = int64(len(buf))
		d.ckptDepth = 0
	} else {
		d.ckptChainOff += int64(len(buf))
		d.ckptDepth++
	}
	d.ckptTS = rec.CkptTS
	d.ckptSeq = rec.FlushedSeq
	d.dirtyBlocks.reset()
	d.dirtyLists.reset()
	d.segsSinceC = 0
	d.stats.Checkpoints.Add(1)
	if !base {
		d.stats.CkptDeltas.Add(1)
	}
	if base {
		sp.As(obs.SpanCheckpoint).End(0, rec.CkptTS, uint64(oldDepth))
	} else {
		sp.End(0, rec.CkptTS, uint64(d.ckptDepth))
	}
	return nil
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

// Close flushes, checkpoints if possible (no open ARUs), and marks the
// instance unusable. Open ARUs are discarded, exactly as a crash would
// discard them.
func (d *LLD) Close() error {
	d.lockDrained()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	var err error
	if len(d.arus) == 0 {
		err = d.checkpointLocked()
	} else {
		err = d.drainLocked()
	}
	d.closed = true
	// Publish one final epoch with the closed flag set, so lock-free
	// readers and snapshot handles acquired after this point observe
	// ErrClosed; outstanding handles turn stale.
	d.publishLocked()
	d.invalid.Store(true)
	return err
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
