package core

import (
	"fmt"

	"aru/internal/obs"
	"aru/internal/seg"
)

// Read copies the contents of block b, as seen from the state of aru
// (SimpleARU reads the committed state), into dst. dst must be exactly
// one block long. An allocated block that has never been written reads
// as zeroes.
// A simple Read takes no lock at all: it pins the current MVCC epoch
// with one atomic load plus a refcount increment and resolves entirely
// against that immutable snapshot (snapshot.go) — in-memory versions,
// pinned segment images, or the device through its lock-free read
// interface. The only shared state it mutates are the refcount and the
// atomic stats counters. A Read inside an ARU takes d.mu only to publish
// a shadow edit still pending (acquireView).
func (d *LLD) Read(aru ARUID, b BlockID, dst []byte) error {
	if d.obs == nil {
		return d.read(aru, b, dst)
	}
	sp := d.obs.Start(obs.SpanRead, obs.SpanContext{})
	err := d.read(aru, b, dst)
	if err == nil {
		sp.End(uint64(aru), uint64(b), 0)
	}
	return err
}

func (d *LLD) read(aru ARUID, b BlockID, dst []byte) error {
	s := d.acquireView(aru)
	if s == nil {
		return ErrClosed
	}
	defer s.release()
	if s.closed {
		return ErrClosed
	}
	return s.read(aru, b, dst)
}

// Write replaces the contents of block b with data (one block exactly).
// Inside an ARU the write creates/updates the ARU's shadow version; the
// data itself is appended to the log immediately (tagged with the ARU),
// so commit only needs to log the commit record, never re-copy data.
func (d *LLD) Write(aru ARUID, b BlockID, data []byte) error {
	if d.obs == nil {
		return d.write(aru, b, data)
	}
	sp := d.obs.Start(obs.SpanWrite, obs.SpanContext{})
	err := d.write(aru, b, data)
	if err == nil {
		sp.End(uint64(aru), uint64(b), 0)
	}
	return err
}

func (d *LLD) write(aru ARUID, b BlockID, data []byte) error {
	d.mu.Lock()
	defer d.endOp()
	if d.closed {
		return ErrClosed
	}
	if len(data) != d.params.Layout.BlockSize {
		return fmt.Errorf("%w: Write buffer is %d bytes, block size is %d", ErrBadParam, len(data), d.params.Layout.BlockSize)
	}
	m, err := d.modeFor(aru)
	if err != nil {
		return err
	}
	if err := d.refuseGrowth(0, 0); err != nil {
		return err
	}
	if _, ok := d.viewBlock(b, m.view); !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchBlock, b)
	}
	// Writes stay in memory: the new version replaces the state's
	// current version (paper §3.1 — the replaced one is discarded) and
	// is materialized into a segment, with its summary entry, only at
	// seal time. Repeated rewrites of hot meta-data blocks therefore
	// cost one log slot per segment, not one per write. Make sure the
	// open segment can still absorb one more materialized block before
	// committing to the buffer.
	seq, cur := d.nextSeq, d.curSeg
	if err := d.ensureRoom(1, 1); err != nil {
		return err
	}
	wb, ok := d.writableBlock(b, m.view, m.st)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchBlock, b)
	}
	ts := d.tick()
	gating := m.tracked != nil
	// Always install a fresh buffer: a published epoch shares the old
	// one with lock-free readers, so an in-place overwrite would tear
	// their reads. setBlockData retires the replaced buffer into the
	// current epoch's retire-set (the in-place coalescing this
	// replaces predates the MVCC read path; CoalescedWrites is
	// retained in Stats but stays zero).
	buf := d.getBuf()
	copy(buf, data)
	d.setBlockData(wb, buf, m.tag, gating)
	wb.rec.TS = ts
	m.touchBlock(wb, ts)
	d.stats.Writes++
	d.deferPublish(m.st != nil && d.nextSeq == seq && d.curSeg == cur)
	return nil
}

// NewBlock allocates a new block and inserts it into list lst after
// block pred (NilBlock inserts at the head). Allocation always happens
// in the committed state — concurrent ARUs can never be handed the same
// identifier — while the insertion is shadowed inside an ARU, so other
// clients do not see the new block on any list until the ARU commits,
// yet cannot allocate it either (paper §3.3).
func (d *LLD) NewBlock(aru ARUID, lst ListID, pred BlockID) (BlockID, error) {
	d.mu.Lock()
	defer d.endOp()
	if d.closed {
		return NilBlock, ErrClosed
	}
	m, err := d.modeFor(aru)
	if err != nil {
		return NilBlock, err
	}
	if err := d.refuseGrowth(1, 0); err != nil {
		return NilBlock, err
	}
	if _, ok := d.viewList(lst, m.view); !ok {
		return NilBlock, fmt.Errorf("%w: %d", ErrNoSuchList, lst)
	}
	if pred != NilBlock {
		prec, ok := d.viewBlock(pred, m.view)
		if !ok || prec.List != lst {
			return NilBlock, fmt.Errorf("%w: pred %d in list %d", ErrNotMember, pred, lst)
		}
	}
	id := d.nextBlk
	d.nextBlk++
	ts := d.tick()
	if err := d.appendEntry(seg.Entry{Kind: seg.KindNewBlock, ARU: m.tag, TS: ts, Block: id, List: lst}); err != nil {
		return NilBlock, err
	}
	lf := d.blockTab.create(d.epoch+1, uint64(id))
	d.newCommBlock(lf, seg.BlockRec{ID: id, TS: ts}).commitTS = ts
	d.stats.NewBlocks++

	if m.st != nil {
		m.st.linkLog = append(m.st.linkLog, listOp{kind: opInsert, list: lst, block: id, pred: pred})
	}
	if err := d.insertIn(m, lst, id, pred, true); err != nil {
		return NilBlock, err
	}
	return id, nil
}

// NewList allocates a new, empty block list. Like NewBlock, list
// allocation always happens in the committed state.
func (d *LLD) NewList(aru ARUID) (ListID, error) {
	d.mu.Lock()
	defer d.endOp()
	if d.closed {
		return NilList, ErrClosed
	}
	m, err := d.modeFor(aru)
	if err != nil {
		return NilList, err
	}
	if err := d.refuseGrowth(0, 1); err != nil {
		return NilList, err
	}
	id := d.nextLst
	d.nextLst++
	ts := d.tick()
	if err := d.appendEntry(seg.Entry{Kind: seg.KindNewList, ARU: m.tag, TS: ts, List: id}); err != nil {
		return NilList, err
	}
	lf := d.listTab.create(d.epoch+1, uint64(id))
	d.newCommList(lf, seg.ListRec{ID: id}).commitTS = ts
	d.stats.NewLists++
	return id, nil
}

// DeleteBlock removes block b from its list and de-allocates it. Inside
// an ARU both effects are shadowed and take effect at commit.
func (d *LLD) DeleteBlock(aru ARUID, b BlockID) error {
	d.mu.Lock()
	defer d.endOp()
	if d.closed {
		return ErrClosed
	}
	m, err := d.modeFor(aru)
	if err != nil {
		return err
	}
	rec, ok := d.viewBlock(b, m.view)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchBlock, b)
	}
	if m.st != nil {
		m.st.linkLog = append(m.st.linkLog, listOp{kind: opDeleteBlock, list: rec.List, block: b})
	}
	if err := d.deleteBlockIn(m, b, true); err != nil {
		return err
	}
	d.deferPublish(m.st != nil)
	return nil
}

// DeleteList de-allocates list lst together with every block still on
// it, walking from the head so that no predecessor searches are needed
// (the improved deletion policy of paper §5.3).
func (d *LLD) DeleteList(aru ARUID, lst ListID) error {
	d.mu.Lock()
	defer d.endOp()
	if d.closed {
		return ErrClosed
	}
	m, err := d.modeFor(aru)
	if err != nil {
		return err
	}
	if _, ok := d.viewList(lst, m.view); !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchList, lst)
	}
	if m.st != nil {
		m.st.linkLog = append(m.st.linkLog,
			listOp{kind: opDeleteList, list: lst, members: d.membersIn(m.view, lst)})
	}
	if err := d.deleteListIn(m, lst, true); err != nil {
		return err
	}
	d.deferPublish(m.st != nil)
	return nil
}

// membersIn returns the members of lst, in order, as seen from view.
// The snapshot backs the prepare-time pre-log of an in-ARU DeleteList
// (see listOp.members). Caller holds d.mu.
func (d *LLD) membersIn(view ARUID, lst ListID) []BlockID {
	lrec, ok := d.viewList(lst, view)
	if !ok {
		return nil
	}
	var out []BlockID
	for cur := lrec.First; cur != NilBlock; {
		out = append(out, cur)
		rec, ok := d.viewBlock(cur, view)
		if !ok {
			break
		}
		cur = rec.Succ
	}
	return out
}

// insertIn inserts block id into list lst after pred within the mode's
// state. With strict false (commit-time replay), an insertion whose
// predecessor has vanished from the committed state falls back to the
// head of the list, and an insertion whose list or block has vanished
// is dropped; both fallbacks are counted in Stats.MergeFallbacks
// (merge policy, DESIGN.md §5).
func (d *LLD) insertIn(m mode, lst ListID, id BlockID, pred BlockID, strict bool) error {
	if _, ok := d.viewList(lst, m.view); !ok {
		if strict {
			return fmt.Errorf("%w: %d", ErrNoSuchList, lst)
		}
		d.stats.MergeFallbacks++
		return nil
	}
	if _, ok := d.viewBlock(id, m.view); !ok {
		if strict {
			return fmt.Errorf("%w: %d", ErrNoSuchBlock, id)
		}
		d.stats.MergeFallbacks++
		return nil
	}
	effPred := pred
	if pred != NilBlock {
		prec, ok := d.viewBlock(pred, m.view)
		if !ok || prec.List != lst {
			if strict {
				return fmt.Errorf("%w: pred %d in list %d", ErrNotMember, pred, lst)
			}
			effPred = NilBlock
			d.stats.MergeFallbacks++
		}
	}
	ts := d.tick()
	if m.st == nil && !m.silent {
		// The effective predecessor is logged, so recovery replays the
		// exact same insertion even when a fallback was taken.
		err := d.appendEntry(seg.Entry{Kind: seg.KindLink, ARU: m.tag, TS: ts, Block: id, List: lst, Pred: effPred})
		if err != nil {
			return err
		}
	}
	wl, ok := d.writableList(lst, m.view, m.st)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchList, lst)
	}
	wb, ok := d.writableBlock(id, m.view, m.st)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchBlock, id)
	}
	if effPred == NilBlock {
		wb.rec.Succ = wl.rec.First
		wl.rec.First = id
		if wl.rec.Last == NilBlock {
			wl.rec.Last = id
		}
	} else {
		wp, ok := d.writableBlock(effPred, m.view, m.st)
		if !ok {
			return fmt.Errorf("%w: pred %d", ErrNoSuchBlock, effPred)
		}
		wb.rec.Succ = wp.rec.Succ
		wp.rec.Succ = id
		wp.rec.TS = ts
		m.touchBlock(wp, ts)
		if wl.rec.Last == effPred {
			wl.rec.Last = id
		}
	}
	wb.rec.List = lst
	wb.rec.TS = ts
	m.touchBlock(wb, ts)
	m.touchList(wl, ts)
	return nil
}

// unlinkIn removes block b from list lst within the mode's state,
// running the predecessor search the paper identifies as the dominant
// deletion cost.
func (d *LLD) unlinkIn(m mode, lst ListID, b BlockID) error {
	lrec, ok := d.viewList(lst, m.view)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchList, lst)
	}
	pred := NilBlock
	cur := lrec.First
	for cur != NilBlock && cur != b {
		crec, ok := d.viewBlock(cur, m.view)
		if !ok {
			return fmt.Errorf("lld: list %d chain broken at block %d", lst, cur)
		}
		pred = cur
		cur = crec.Succ
		d.stats.PredecessorSearchSteps++
	}
	if cur == NilBlock {
		return fmt.Errorf("%w: block %d in list %d", ErrNotMember, b, lst)
	}
	brec, _ := d.viewBlock(b, m.view)
	ts := d.tick()
	if m.st == nil && !m.silent {
		err := d.appendEntry(seg.Entry{Kind: seg.KindUnlink, ARU: m.tag, TS: ts, Block: b, List: lst, Pred: pred})
		if err != nil {
			return err
		}
	}
	wl, ok := d.writableList(lst, m.view, m.st)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchList, lst)
	}
	if pred == NilBlock {
		wl.rec.First = brec.Succ
	} else {
		wp, ok := d.writableBlock(pred, m.view, m.st)
		if !ok {
			return fmt.Errorf("%w: pred %d", ErrNoSuchBlock, pred)
		}
		wp.rec.Succ = brec.Succ
		wp.rec.TS = ts
		m.touchBlock(wp, ts)
	}
	if wl.rec.Last == b {
		wl.rec.Last = pred
	}
	wb, ok := d.writableBlock(b, m.view, m.st)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchBlock, b)
	}
	wb.rec.Succ = NilBlock
	wb.rec.List = NilList
	wb.rec.TS = ts
	m.touchBlock(wb, ts)
	m.touchList(wl, ts)
	return nil
}

// deleteBlockIn unlinks (if needed) and de-allocates block b within the
// mode's state. With strict false a vanished block is skipped.
func (d *LLD) deleteBlockIn(m mode, b BlockID, strict bool) error {
	rec, ok := d.viewBlock(b, m.view)
	if !ok {
		if strict {
			return fmt.Errorf("%w: %d", ErrNoSuchBlock, b)
		}
		d.stats.MergeFallbacks++
		return nil
	}
	if rec.List != NilList {
		if err := d.unlinkIn(m, rec.List, b); err != nil {
			return err
		}
	}
	ts := d.tick()
	if m.st == nil && !m.silent {
		err := d.appendEntry(seg.Entry{Kind: seg.KindDeleteBlock, ARU: m.tag, TS: ts, Block: b})
		if err != nil {
			return err
		}
	}
	wb, ok := d.writableBlock(b, m.view, m.st)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchBlock, b)
	}
	d.markBlockDeleted(wb, m.tracked != nil)
	m.touchBlock(wb, ts)
	d.stats.DeleteBlocks++
	return nil
}

// deleteListIn de-allocates every member of lst from the head, then the
// list itself, within the mode's state.
func (d *LLD) deleteListIn(m mode, lst ListID, strict bool) error {
	if _, ok := d.viewList(lst, m.view); !ok {
		if strict {
			return fmt.Errorf("%w: %d", ErrNoSuchList, lst)
		}
		d.stats.MergeFallbacks++
		return nil
	}
	for {
		lrec, ok := d.viewList(lst, m.view)
		if !ok || lrec.First == NilBlock {
			break
		}
		b := lrec.First
		brec, ok := d.viewBlock(b, m.view)
		if !ok {
			return fmt.Errorf("lld: list %d chain broken at head block %d", lst, b)
		}
		ts := d.tick()
		if m.st == nil && !m.silent {
			err := d.appendEntry(seg.Entry{Kind: seg.KindDeleteBlock, ARU: m.tag, TS: ts, Block: b})
			if err != nil {
				return err
			}
		}
		wl, ok := d.writableList(lst, m.view, m.st)
		if !ok {
			return fmt.Errorf("%w: %d", ErrNoSuchList, lst)
		}
		wl.rec.First = brec.Succ
		if wl.rec.First == NilBlock {
			wl.rec.Last = NilBlock
		}
		m.touchList(wl, ts)
		wb, ok := d.writableBlock(b, m.view, m.st)
		if !ok {
			return fmt.Errorf("%w: %d", ErrNoSuchBlock, b)
		}
		d.markBlockDeleted(wb, m.tracked != nil)
		m.touchBlock(wb, ts)
		d.stats.DeleteBlocks++
	}
	ts := d.tick()
	if m.st == nil && !m.silent {
		err := d.appendEntry(seg.Entry{Kind: seg.KindDeleteList, ARU: m.tag, TS: ts, List: lst})
		if err != nil {
			return err
		}
	}
	wl, ok := d.writableList(lst, m.view, m.st)
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchList, lst)
	}
	wl.deleted = true
	wl.rec = seg.ListRec{ID: lst}
	m.touchList(wl, ts)
	d.stats.DeleteLists++
	return nil
}

// markBlockDeleted turns wb into a deletion marker, releasing its
// in-memory buffer and data pin. A gated deletion (the deleting unit's
// commit record is not yet logged) stashes the previous ungated version
// first: should only the earlier unit's commit become durable, its data
// must still be recoverable.
func (d *LLD) markBlockDeleted(wb *blockVer, gating bool) {
	if gating {
		d.stashPrev(wb)
	}
	d.dropBlockData(wb)
	if wb.rec.HasData {
		d.unpinSeg(wb.rec.Seg)
	}
	wb.deleted = true
	wb.rec = seg.BlockRec{ID: wb.rec.ID}
}
