package core

import (
	"math"

	"aru/internal/seg"
)

// gateOpen marks a committed record touched by a still-open
// sequential-variant ARU: it must not be promoted to the persistent
// state until that ARU commits and assigns the real commit timestamp.
const gateOpen = uint64(math.MaxUint64)

// version is one alternative version of a block or list: the shadow
// version of one ARU, or the committed version. The fields from data
// down are used by block versions only; list versions leave them zero.
type version[R any] struct {
	aru ARUID // owner state: SimpleARU = committed, else shadow of aru

	rec     R    // the alternative version of the record
	deleted bool // the identifier is de-allocated in this version

	// commitTS orders the committed→persistent transition: the record
	// may be promoted once commitTS <= durableTS. Shadow records have
	// commitTS 0 (meaningless until merged); records gated by an open
	// ARU (sequential-variant operations, or a concurrent commit in
	// progress) use gateOpen.
	commitTS uint64

	// data holds the version's contents while it lives only in memory
	// (rec.HasData is false then). Versions written inside the current
	// stream replace each other in memory (paper §3.1: the newer
	// version of a class replaces the older, which is discarded) and
	// are materialized into the open segment — with a correctly tagged
	// summary entry — only when the segment is sealed. nil means the
	// contents are at rec.Seg/rec.Slot (if rec.HasData) or all-zero.
	data []byte

	// wtag is the ARU whose write produced data; it tags the summary
	// entry when the buffer is materialized while that ARU's commit
	// record is not yet logged (commitTS == gateOpen), so recovery
	// applies the version only together with the rest of the unit.
	wtag ARUID

	// prevData stashes the previous (committed-pending) contents when a
	// gated write overwrites a committed record whose own commit record
	// has not been sealed yet. Should a seal capture the earlier unit's
	// commit while the gating unit is still open, prevData is emitted
	// on the merged stream so the earlier unit stays complete. It is
	// dropped as soon as the gating unit commits (both commits then
	// share the next sealed segment) or when the buffer materializes.
	prevData []byte
	prevTS   uint64
}

// leaf is one entry of the block-number-map or the list-table, held
// directly by the table's persistent trie (epochmap.go): the
// persistent record plus every alternative version of the identifier —
// the paper's perpendicular lists (§4, Figure 4) with the
// same-identifier chain held by value. An entry exists while any
// version exists. (The open-ARU table uses only persist, for the
// ARU's mark.)
//
// A leaf is immutable once an epoch containing it is published: only
// the window it was born in may mutate it, and only through the edit
// primitive (table.edit), which clones it on the first touch in any
// later window.
type leaf[R any] struct {
	id         uint64
	born       uint64 // the epoch this leaf is first published in
	hasPersist bool
	persist    R
	vers       []version[R] // oldest first, at most one per state
}

type (
	blockVer  = version[seg.BlockRec]
	listVer   = version[seg.ListRec]
	blockLeaf = leaf[seg.BlockRec]
	listLeaf  = leaf[seg.ListRec]
)

// find returns the version owned by state aru, or nil (also for a nil
// leaf, so a table lookup and find chain without a check in between).
func (lf *leaf[R]) find(aru ARUID) *version[R] {
	if lf == nil {
		return nil
	}
	for i := range lf.vers {
		if lf.vers[i].aru == aru {
			return &lf.vers[i]
		}
	}
	return nil
}

// resolve is the standardized version search (paper §3.3): the view's
// own shadow version if one exists, else the committed version, else
// the persistent one. It returns the alternative version found (nil
// for the persistent record) and whether the identifier exists in that
// view at all — false if it was never allocated or is deleted in the
// nearest version. The engine and the lock-free readers both resolve
// through it.
func (lf *leaf[R]) resolve(view ARUID) (*version[R], bool) {
	if view != seg.SimpleARU {
		if v := lf.find(view); v != nil {
			return v, !v.deleted
		}
	}
	if v := lf.find(seg.SimpleARU); v != nil {
		return v, !v.deleted
	}
	return nil, lf.hasPersist
}

// remove drops the version owned by state aru, keeping the others in
// order.
func (lf *leaf[R]) remove(aru ARUID) {
	for i := range lf.vers {
		if lf.vers[i].aru == aru {
			n := copy(lf.vers[i:], lf.vers[i+1:])
			lf.vers[i+n] = version[R]{}
			lf.vers = lf.vers[:i+n]
			return
		}
	}
}

// versions returns the number of live versions (for the n+2 bound).
func (lf *leaf[R]) versions() int {
	if lf.hasPersist {
		return len(lf.vers) + 1
	}
	return len(lf.vers)
}

// view returns the entry's effective record as seen from view; false
// if the identifier does not exist in that view.
func (lf *leaf[R]) view(view ARUID) (rec R, ok bool) {
	v, ok := lf.resolve(view)
	switch {
	case !ok:
		return rec, false
	case v != nil:
		return v.rec, true
	}
	return lf.persist, true
}

// viewRec is view for id's entry in the trie under root.
func viewRec[R any](root *pnode[R], id uint64, view ARUID) (rec R, ok bool) {
	if lf := pmapGet(root, id); lf != nil {
		return lf.view(view)
	}
	return rec, false
}

// editBlock and editList return id's entry as a leaf of the current
// window (see table.edit for the handle's lifetime); nil if none.
func (d *LLD) editBlock(id BlockID) *blockLeaf { return d.blockTab.edit(d.epoch+1, uint64(id)) }
func (d *LLD) editList(id ListID) *listLeaf    { return d.listTab.edit(d.epoch+1, uint64(id)) }

// viewBlock and viewList resolve against the engine's own tries.
// Callers must hold d.mu.
func (d *LLD) viewBlock(id BlockID, aru ARUID) (seg.BlockRec, bool) {
	return viewRec(d.blockTab.root, uint64(id), aru)
}

func (d *LLD) viewList(id ListID, aru ARUID) (seg.ListRec, bool) {
	return viewRec(d.listTab.root, uint64(id), aru)
}

// opKind discriminates list-operation log records.
type opKind uint8

const (
	// opInsert logs "insert block into list after pred" (NilBlock pred
	// inserts at the head). Logged by NewBlock inside an ARU.
	opInsert opKind = iota + 1
	// opDeleteBlock logs "remove block from list and de-allocate it".
	opDeleteBlock
	// opDeleteList logs "de-allocate list and every remaining member".
	opDeleteList
	// opUnlinkOnly logs "remove block from its list without
	// de-allocating it" (the first half of MoveBlock).
	opUnlinkOnly
)

// listOp is one record of an ARU's in-memory list-operation log. Ops
// are executed in the shadow state when issued (without emitting
// summary entries) and re-executed in the committed state at commit,
// where the real link records are generated (paper §4).
type listOp struct {
	kind  opKind
	list  ListID
	block BlockID
	pred  BlockID
	// members snapshots the list's membership (in order) at the moment
	// an in-ARU DeleteList was issued. PrepareARU pre-logs the deletion
	// as per-member delete-block records, and the membership a prepared
	// unit deletes must be the one its client observed — not whatever
	// the committed list holds when the coordinator finally commits.
	members []BlockID
}

// aruState is the in-memory state of one open ARU: its same-state
// chains and its list-operation log. A leaf's address does not survive
// a publish window, so same-state chains — these and the committed
// state's d.commBlocks/d.commLists — name identifiers, newest last,
// and re-resolve through the edit primitive. For the sequential
// variant the shadow chains stay empty and touched/touchedLists gate
// the committed records the ARU has modified in place.
type aruState struct {
	id ARUID

	shadowBlocks []BlockID
	shadowLists  []ListID
	linkLog      []listOp

	// Sequential-variant bookkeeping: committed records modified by
	// this ARU, whose promotion is gated until EndARU.
	touched      []BlockID
	touchedLists []ListID

	// Two-phase commit (cross-shard ARUs, internal/shard): a prepared
	// unit is frozen — its data is materialized and its operations are
	// pre-logged under coordinator transaction prepTxn — until
	// CommitPrepared or AbortARU decides its fate.
	prepared bool
	prepTxn  uint64
}

// writableBlock returns the version of block id that operations of
// state aru should modify, creating it as a copy of the next version in
// the search order if needed (the paper's "standardized search": the
// modified copy of the committed or persistent version becomes the new
// shadow version). It reports false if the block does not exist in the
// view. For aru == SimpleARU the returned version belongs to the
// committed state.
//
// Callers must hold d.mu; st is nil for committed-state access. The
// result is an edit handle (see table.edit for how long it stays valid).
func (d *LLD) writableBlock(id BlockID, aru ARUID, st *aruState) (*blockVer, bool) {
	lf := d.editBlock(id)
	if lf == nil {
		return nil, false
	}
	v, ok := lf.resolve(aru)
	switch {
	case !ok:
		return nil, false
	case v != nil && v.aru == aru:
		return v, true
	case v != nil: // a shadow state copies the committed version up
		return d.newShadowBlock(lf, st, v.rec, v.data), true
	case aru == seg.SimpleARU:
		return d.newCommBlock(lf, lf.persist), true
	}
	return d.newShadowBlock(lf, st, lf.persist, nil), true
}

// writableList is the list analogue of writableBlock.
func (d *LLD) writableList(id ListID, aru ARUID, st *aruState) (*listVer, bool) {
	lf := d.editList(id)
	if lf == nil {
		return nil, false
	}
	v, ok := lf.resolve(aru)
	switch {
	case !ok:
		return nil, false
	case v != nil && v.aru == aru:
		return v, true
	case v != nil:
		return d.newShadowList(lf, st, v.rec), true
	case aru == seg.SimpleARU:
		return d.newCommList(lf, lf.persist), true
	}
	return d.newShadowList(lf, st, lf.persist), true
}

// newShadowBlock adds a shadow copy of the source version — record
// fields plus, when the source's contents still live in memory, a
// snapshot of its buffer (a copied record must carry the copied
// version's *contents*, not just its structure) — to the window-owned
// leaf lf and to the ARU's same-state chain.
func (d *LLD) newShadowBlock(lf *blockLeaf, st *aruState, rec seg.BlockRec, data []byte) *blockVer {
	lf.vers = append(lf.vers, blockVer{aru: st.id, rec: rec})
	v := &lf.vers[len(lf.vers)-1]
	if data != nil {
		v.data = d.getBuf()
		copy(v.data, data)
	}
	if rec.HasData {
		d.pinSeg(rec.Seg)
	}
	st.shadowBlocks = append(st.shadowBlocks, BlockID(lf.id))
	d.stats.ShadowRecords++
	d.stats.AltRecords++
	d.stats.ShadowCreated++
	return v
}

// newShadowList adds a shadow copy of rec for the ARU st to lf.
func (d *LLD) newShadowList(lf *listLeaf, st *aruState, rec seg.ListRec) *listVer {
	lf.vers = append(lf.vers, listVer{aru: st.id, rec: rec})
	st.shadowLists = append(st.shadowLists, ListID(lf.id))
	d.stats.ShadowRecords++
	d.stats.AltRecords++
	d.stats.ShadowCreated++
	return &lf.vers[len(lf.vers)-1]
}

// newCommBlock adds a committed version with contents rec to the
// window-owned leaf lf and to the committed state's chain.
func (d *LLD) newCommBlock(lf *blockLeaf, rec seg.BlockRec) *blockVer {
	lf.vers = append(lf.vers, blockVer{aru: seg.SimpleARU, rec: rec})
	if rec.HasData {
		d.pinSeg(rec.Seg)
	}
	d.commBlocks = append(d.commBlocks, BlockID(lf.id))
	d.stats.AltRecords++
	d.stats.CommittedCreated++
	return &lf.vers[len(lf.vers)-1]
}

// newCommList adds a committed version with contents rec to lf.
func (d *LLD) newCommList(lf *listLeaf, rec seg.ListRec) *listVer {
	lf.vers = append(lf.vers, listVer{aru: seg.SimpleARU, rec: rec})
	d.commLists = append(d.commLists, ListID(lf.id))
	d.stats.AltRecords++
	d.stats.CommittedCreated++
	return &lf.vers[len(lf.vers)-1]
}

// setBlockPhys points ab's record at a new physical location, dropping
// any in-memory buffer and keeping the per-segment pin counts balanced.
func (d *LLD) setBlockPhys(ab *blockVer, segIdx, slot uint32, tag ARUID) {
	d.dropBlockData(ab)
	if ab.rec.HasData {
		d.unpinSeg(ab.rec.Seg)
	}
	ab.rec.Seg = segIdx
	ab.rec.Slot = slot
	ab.rec.HasData = true
	ab.wtag = tag
	d.pinSeg(segIdx)
}

// stashPrev preserves ab's current ungated buffer as the pre-unit
// version before a gated operation (one whose commit record is not yet
// logged) overwrites or deletes it. The earlier version's commit may
// already be pending, and its data must stay recoverable until both
// commits can be sealed together. A previously stashed version is
// superseded: its commit and the current buffer's commit belong to the
// same pending batch and will flush in one atomic segment.
//
// The buffer's capacity slot transfers from data to prevData, so the
// committed-buffer accounting is unchanged.
func (d *LLD) stashPrev(ab *blockVer) {
	if ab.aru != seg.SimpleARU || ab.data == nil || ab.commitTS == gateOpen {
		return
	}
	if ab.prevData != nil {
		d.commBufBlocks-- // the superseded stash frees its slot
		d.putBuf(ab.prevData)
	}
	ab.prevData = ab.data
	ab.prevTS = ab.rec.TS
	ab.data = nil
}

// setBlockData installs buf (owned by the callee afterwards) as ab's
// in-memory contents, written under entry tag tag, releasing any older
// location. Committed-state buffers count against the open segment's
// capacity (they materialize into it at seal time). With gating true
// the previous ungated version is stashed first (see stashPrev).
func (d *LLD) setBlockData(ab *blockVer, buf []byte, tag ARUID, gating bool) {
	if gating {
		d.stashPrev(ab)
	}
	if ab.data != nil {
		// The replaced version is discarded (paper §3.1); its buffer
		// already holds a committed-buffer slot, so the count stands.
		d.putBuf(ab.data)
	} else if ab.aru == seg.SimpleARU {
		d.commBufBlocks++
	}
	if ab.rec.HasData {
		d.unpinSeg(ab.rec.Seg)
		ab.rec.HasData = false
	}
	ab.data = buf
	ab.wtag = tag
}

// takeBuf detaches the buffer in *slot — ab's data or prevData — and
// hands it (nil if there is none) to the caller, who owns it from here
// on: it either retires it (putBuf) or makes it the cache entry of the
// location the contents were just written to (cacheAdopt).
func (d *LLD) takeBuf(ab *blockVer, slot *[]byte) []byte {
	buf := *slot
	if buf != nil {
		*slot = nil
		if ab.aru == seg.SimpleARU {
			d.commBufBlocks--
		}
	}
	return buf
}

// dropBlockData discards and retires ab's in-memory buffer, if any.
func (d *LLD) dropBlockData(ab *blockVer) { d.putBuf(d.takeBuf(ab, &ab.data)) }

// dropPrevData discards and retires ab's stashed pre-unit version, if
// any.
func (d *LLD) dropPrevData(ab *blockVer) { d.putBuf(d.takeBuf(ab, &ab.prevData)) }

// dropBlockVer releases ab's buffers and pin and removes it from the
// window-owned leaf lf, dropping the entry with its last version. The
// caller is responsible for the same-state chain.
func (d *LLD) dropBlockVer(lf *blockLeaf, ab *blockVer) {
	aru := ab.aru
	d.dropBlockData(ab)
	d.dropPrevData(ab)
	if ab.rec.HasData {
		d.unpinSeg(ab.rec.Seg)
	}
	d.stats.AltRecords--
	if aru != seg.SimpleARU {
		d.stats.ShadowRecords--
	}
	if lf.remove(aru); lf.versions() == 0 {
		d.blockTab.drop(lf.id)
	}
}

// dropListVer removes state aru's version from the window-owned leaf
// lf.
func (d *LLD) dropListVer(lf *listLeaf, aru ARUID) {
	d.stats.AltRecords--
	if aru != seg.SimpleARU {
		d.stats.ShadowRecords--
	}
	if lf.remove(aru); lf.versions() == 0 {
		d.listTab.drop(lf.id)
	}
}

func (d *LLD) pinSeg(s uint32) { d.segPins[s]++ }

// unpinSeg drops one reference into segment s; the last may leave it
// freeable. Snapshots published up to (and including) the current
// window may still resolve reads into s's old bytes, so reuse must
// additionally wait until every epoch before the NEXT publish has
// drained (segReusable).
func (d *LLD) unpinSeg(s uint32) {
	d.segPins[s]--
	d.segFreeEpoch[s] = d.epoch + 1
	d.enterFree(int(s))
}
