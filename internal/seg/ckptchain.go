package seg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Incremental checkpoint chains.
//
// A checkpoint region holds a *chain* of sector-aligned records — one
// base record (a full snapshot) followed by zero or more delta records,
// each carrying only the block/list records dirtied since the previous
// record in the chain. Recovery decodes the longest valid prefix of
// the chain and materializes base+deltas into one Checkpoint.
//
// Chain integrity under crashes comes from three properties:
//
//   - every record is independently CRC-protected (header and
//     payload), so a torn delta write can only truncate the chain at a
//     record boundary, never corrupt it silently;
//   - each delta names the CkptTS of its predecessor (PrevTS), and
//     CkptTS is strictly monotonic per disk, so a CRC-valid record
//     left over from an earlier chain lifetime in the same region can
//     never splice into a newer chain;
//   - a truncated chain is always safe: an older chain head only means
//     recovery starts from an older FlushedSeq and replays more
//     segments (the segments are still there — reuse is gated on the
//     *synced* chain head).
//
// When a chain grows past the compaction threshold, or its region runs
// out of room, the writer compacts: it writes a fresh base into the
// other region (build-then-publish: the new base only wins once it is
// durable, because recovery picks the region whose head has the larger
// CkptTS) and the chain continues there. A region that starts under the
// retired single-snapshot magic is ErrRetiredFormat.

// Wire sizes of a chain record: its fixed header, and one block record
// (id, seg, slot, succ, list, ts, flags) and one list record (id, first,
// last, ts) of its tables. A deletion is an identifier, 8 bytes.
const (
	ckptRecHeaderBytes = 88
	ckptBlockRecBytes  = 8 + 4 + 4 + 8 + 8 + 8 + 1
	ckptListRecBytes   = 8 + 8 + 8 + 8
)

// ckptRecFlagBase marks the record as a chain base (full snapshot).
const ckptRecFlagBase = 1

// CkptRec is one record of an incremental checkpoint chain: a full
// base snapshot (Base) or a delta carrying only the records dirtied
// since the previous chain record. Scalars (FlushedSeq and the
// allocator seeds) are carried by every record; the newest record's
// values win.
type CkptRec struct {
	Base   bool
	CkptTS uint64 // orders records; strictly monotonic per disk
	PrevTS uint64 // CkptTS of the predecessor record (0 for a base)

	FlushedSeq uint64
	NextTS     uint64
	NextBlock  BlockID
	NextList   ListID
	NextARU    ARUID

	// Blocks and Lists are upserts; DelBlocks and DelLists name
	// identifiers de-allocated since the previous record. A base has
	// empty deletion sets.
	Blocks    []BlockRec
	Lists     []ListRec
	DelBlocks []BlockID
	DelLists  []ListID
}

// ckptRecBytes returns the sector-rounded wire size of a chain record of
// nb block and nl list records and nd deletions.
func ckptRecBytes(nb, nl, nd int) int64 {
	return roundUp(ckptRecHeaderBytes+int64(nb)*ckptBlockRecBytes+int64(nl)*ckptListRecBytes+int64(nd)*8, SectorSize)
}

// WireBytes returns the sector-rounded on-disk size of r.
func (r CkptRec) WireBytes() int64 {
	return ckptRecBytes(len(r.Blocks), len(r.Lists), len(r.DelBlocks)+len(r.DelLists))
}

// EncodeCkptRec encodes one chain record for layout l into a fresh
// sector-rounded buffer. A record that does not fit a checkpoint region of
// l is refused (Layout.CkptFits), so a record can never outgrow its region.
func EncodeCkptRec(l Layout, r CkptRec) ([]byte, error) {
	e := NewCkptEnc(len(r.Blocks), len(r.Lists), len(r.DelBlocks)+len(r.DelLists))
	for _, b := range r.Blocks {
		e.Block(b)
	}
	for _, li := range r.Lists {
		e.List(li)
	}
	for _, id := range r.DelBlocks {
		e.DelBlock(id)
	}
	for _, id := range r.DelLists {
		e.DelList(id)
	}
	return e.Finish(l, r)
}

// CkptEnc encodes one chain record straight into its wire buffer, table
// entry by table entry, so a writer need not gather the tables first. The
// tables go in wire order — block upserts, list upserts, block deletions,
// list deletions — each in ID order; Finish writes the header.
type CkptEnc struct {
	buf []byte
	off int    // end of the payload written so far, from the buffer's start
	n   [4]int // entries per table, in wire order
	at  int    // the table being written
}

// NewCkptEnc returns an encoder whose buffer holds a record of up to nb
// block and nl list upserts and nd deletions. A deletion is smaller than
// an upsert, so a writer that does not know yet which of its identifiers
// are deletions sizes for all of them as upserts and gets a buffer with
// room to spare.
func NewCkptEnc(nb, nl, nd int) CkptEnc {
	return CkptEnc{buf: make([]byte, ckptRecBytes(nb, nl, nd)), off: ckptRecHeaderBytes}
}

// next reserves size payload bytes for one entry of table t.
func (e *CkptEnc) next(t, size int) []byte {
	if t < e.at {
		panic("seg: checkpoint record tables written out of wire order")
	}
	e.at = t
	e.n[t]++
	p := e.buf[e.off : e.off+size]
	e.off += size
	return p
}

// Block adds a block upsert.
func (e *CkptEnc) Block(b BlockRec) {
	p := e.next(0, ckptBlockRecBytes)
	binary.LittleEndian.PutUint64(p[0:], uint64(b.ID))
	binary.LittleEndian.PutUint32(p[8:], b.Seg)
	binary.LittleEndian.PutUint32(p[12:], b.Slot)
	binary.LittleEndian.PutUint64(p[16:], uint64(b.Succ))
	binary.LittleEndian.PutUint64(p[24:], uint64(b.List))
	binary.LittleEndian.PutUint64(p[32:], b.TS)
	if b.HasData {
		p[40] = 1
	}
}

// List adds a list upsert.
func (e *CkptEnc) List(li ListRec) {
	p := e.next(1, ckptListRecBytes)
	binary.LittleEndian.PutUint64(p[0:], uint64(li.ID))
	binary.LittleEndian.PutUint64(p[8:], uint64(li.First))
	binary.LittleEndian.PutUint64(p[16:], uint64(li.Last))
	binary.LittleEndian.PutUint64(p[24:], li.TS)
}

// DelBlock adds a block deletion.
func (e *CkptEnc) DelBlock(id BlockID) { binary.LittleEndian.PutUint64(e.next(2, 8), uint64(id)) }

// DelList adds a list deletion.
func (e *CkptEnc) DelList(id ListID) { binary.LittleEndian.PutUint64(e.next(3, 8), uint64(id)) }

// Finish completes the record with the header of h — its flag, stamps and
// scalars; h's tables are ignored — and returns it, sector-rounded. It
// refuses a record that does not fit a checkpoint region of l, and a base
// with deletions.
func (e *CkptEnc) Finish(l Layout, h CkptRec) ([]byte, error) {
	nb, nl, nd := e.n[0], e.n[1], e.n[2]+e.n[3]
	size := roundUp(int64(e.off), SectorSize)
	if !l.CkptFits(nb, nl, nd) {
		return nil, fmt.Errorf("seg: a checkpoint record of %d blocks, %d lists and %d deletions takes %d bytes, the region holds %d",
			nb, nl, nd, size, l.CkptRegionBytes())
	}
	if h.Base && nd != 0 {
		return nil, errors.New("seg: base checkpoint record cannot carry deletions")
	}
	buf := e.buf[:size]
	hd := buf[:ckptRecHeaderBytes]
	binary.LittleEndian.PutUint32(hd[0:], ckptChainMagic)
	var flags uint32
	if h.Base {
		flags |= ckptRecFlagBase
	}
	binary.LittleEndian.PutUint32(hd[4:], flags)
	binary.LittleEndian.PutUint64(hd[8:], h.CkptTS)
	binary.LittleEndian.PutUint64(hd[16:], h.PrevTS)
	binary.LittleEndian.PutUint64(hd[24:], h.FlushedSeq)
	binary.LittleEndian.PutUint64(hd[32:], h.NextTS)
	binary.LittleEndian.PutUint64(hd[40:], uint64(h.NextBlock))
	binary.LittleEndian.PutUint64(hd[48:], uint64(h.NextList))
	binary.LittleEndian.PutUint64(hd[56:], uint64(h.NextARU))
	for i, n := range e.n {
		binary.LittleEndian.PutUint32(hd[64+4*i:], uint32(n))
	}
	binary.LittleEndian.PutUint32(hd[80:], crc32.Checksum(buf[ckptRecHeaderBytes:e.off], crcTable))
	binary.LittleEndian.PutUint32(hd[84:], crc32.Checksum(hd[:84], crcTable))
	return buf, nil
}

// ckptRecSpan validates the chain-record header at the start of buf and
// returns the table sizes it gives — block and list upserts, block and
// list deletions — and the unrounded length of the record it heads,
// header and payload.
func ckptRecSpan(buf []byte) (n [4]int64, span int64, err error) {
	if len(buf) < ckptRecHeaderBytes {
		return n, 0, fmt.Errorf("%w: short buffer", ErrBadCheckpoint)
	}
	h := buf[:ckptRecHeaderBytes]
	if binary.LittleEndian.Uint32(h[0:]) != ckptChainMagic {
		return n, 0, fmt.Errorf("%w: bad chain magic", ErrBadCheckpoint)
	}
	if got, want := binary.LittleEndian.Uint32(h[84:]), crc32.Checksum(h[:84], crcTable); got != want {
		return n, 0, fmt.Errorf("%w: bad chain header checksum", ErrBadCheckpoint)
	}
	for i := range n {
		n[i] = int64(binary.LittleEndian.Uint32(h[64+4*i:]))
	}
	return n, ckptRecHeaderBytes + n[0]*ckptBlockRecBytes + n[1]*ckptListRecBytes + (n[2]+n[3])*8, nil
}

// DecodeCkptRec decodes and validates one chain record at the start of
// buf, returning the record and its sector-rounded wire length (the
// offset of the next record in the chain).
func DecodeCkptRec(buf []byte) (CkptRec, int64, error) {
	n, span, err := ckptRecSpan(buf)
	if err != nil {
		return CkptRec{}, 0, err
	}
	h := buf[:ckptRecHeaderBytes]
	nb, nl, ndb, ndl := n[0], n[1], n[2], n[3]
	if span > int64(len(buf)) {
		return CkptRec{}, 0, fmt.Errorf("%w: chain payload does not fit (%d blocks, %d lists, %d+%d deletions)",
			ErrBadCheckpoint, nb, nl, ndb, ndl)
	}
	p := buf[ckptRecHeaderBytes:span]
	if got, want := binary.LittleEndian.Uint32(h[80:]), crc32.Checksum(p, crcTable); got != want {
		return CkptRec{}, 0, fmt.Errorf("%w: bad chain payload checksum", ErrBadCheckpoint)
	}
	flags := binary.LittleEndian.Uint32(h[4:])
	r := CkptRec{
		Base:       flags&ckptRecFlagBase != 0,
		CkptTS:     binary.LittleEndian.Uint64(h[8:]),
		PrevTS:     binary.LittleEndian.Uint64(h[16:]),
		FlushedSeq: binary.LittleEndian.Uint64(h[24:]),
		NextTS:     binary.LittleEndian.Uint64(h[32:]),
		NextBlock:  BlockID(binary.LittleEndian.Uint64(h[40:])),
		NextList:   ListID(binary.LittleEndian.Uint64(h[48:])),
		NextARU:    ARUID(binary.LittleEndian.Uint64(h[56:])),
	}
	// The counts are the header's, and span — checked against the buffer
	// above — bounds them: the tables are sized once.
	r.Blocks, r.Lists = make([]BlockRec, 0, nb), make([]ListRec, 0, nl)
	r.DelBlocks, r.DelLists = make([]BlockID, 0, ndb), make([]ListID, 0, ndl)
	off := int64(0)
	for i := int64(0); i < nb; i++ {
		r.Blocks = append(r.Blocks, BlockRec{
			ID:      BlockID(binary.LittleEndian.Uint64(p[off:])),
			Seg:     binary.LittleEndian.Uint32(p[off+8:]),
			Slot:    binary.LittleEndian.Uint32(p[off+12:]),
			Succ:    BlockID(binary.LittleEndian.Uint64(p[off+16:])),
			List:    ListID(binary.LittleEndian.Uint64(p[off+24:])),
			TS:      binary.LittleEndian.Uint64(p[off+32:]),
			HasData: p[off+40] != 0,
		})
		off += ckptBlockRecBytes
	}
	for i := int64(0); i < nl; i++ {
		r.Lists = append(r.Lists, ListRec{
			ID:    ListID(binary.LittleEndian.Uint64(p[off:])),
			First: BlockID(binary.LittleEndian.Uint64(p[off+8:])),
			Last:  BlockID(binary.LittleEndian.Uint64(p[off+16:])),
			TS:    binary.LittleEndian.Uint64(p[off+24:]),
		})
		off += ckptListRecBytes
	}
	for i := int64(0); i < ndb; i++ {
		r.DelBlocks = append(r.DelBlocks, BlockID(binary.LittleEndian.Uint64(p[off:])))
		off += 8
	}
	for i := int64(0); i < ndl; i++ {
		r.DelLists = append(r.DelLists, ListID(binary.LittleEndian.Uint64(p[off:])))
		off += 8
	}
	return r, roundUp(span, SectorSize), nil
}

// CkptChain is the decoded contents of one checkpoint region: the
// longest valid record prefix, base first.
type CkptChain struct {
	Recs []CkptRec
	// NextOff is the region-relative byte offset where the next delta
	// record would be appended.
	NextOff int64
}

// Head returns the newest record of the chain.
func (c CkptChain) Head() CkptRec {
	return c.Recs[len(c.Recs)-1]
}

// Depth returns the number of delta records on top of the base.
func (c CkptChain) Depth() int {
	return len(c.Recs) - 1
}

// DecodeCkptChain decodes one checkpoint region as a chain: a base
// followed by the longest prefix of valid, correctly linked deltas. A
// torn or stale record simply ends the chain; it never invalidates the
// prefix before it.
func DecodeCkptChain(region []byte) (CkptChain, error) {
	return ReadCkptChain(int64(len(region)), func(p []byte, off int64) error {
		copy(p, region[off:])
		return nil
	})
}

// ReadCkptChain is DecodeCkptChain for a region of size bytes that read
// fetches piece by piece (it fills p from region offset off): the sector
// a record's header is in, then the rest of that record, following the
// chain — a region is sized for the largest tables the layout allows and
// a chain fills a fraction of it. A region under the retired snapshot
// magic costs its first sector and is ErrRetiredFormat. An error that is
// neither ErrBadCheckpoint nor ErrRetiredFormat is read's.
func ReadCkptChain(size int64, read func(p []byte, off int64) error) (CkptChain, error) {
	first := make([]byte, min(size, SectorSize))
	if err := read(first, 0); err != nil {
		return CkptChain{}, err
	}
	if len(first) >= 4 && binary.LittleEndian.Uint32(first) == retiredCkptMagic {
		return CkptChain{}, fmt.Errorf("%w: a single-snapshot checkpoint region (magic %#x)", ErrRetiredFormat, retiredCkptMagic)
	}
	base, n, err := readCkptRec(size, 0, first, read)
	if err != nil {
		return CkptChain{}, err
	}
	if !base.Base {
		// A delta at offset 0 is a remnant or a mis-write; without its
		// base it is unusable.
		return CkptChain{}, fmt.Errorf("%w: chain starts with a delta record", ErrBadCheckpoint)
	}
	c := CkptChain{Recs: []CkptRec{base}, NextOff: n}
	for c.NextOff+ckptRecHeaderBytes <= size {
		rec, n, err := readCkptRec(size, c.NextOff, nil, read)
		if err != nil {
			if !errors.Is(err, ErrBadCheckpoint) {
				return CkptChain{}, err
			}
			break // torn, unwritten, or stale tail: chain ends here
		}
		prev := c.Head()
		if rec.Base || rec.PrevTS != prev.CkptTS || rec.CkptTS <= prev.CkptTS {
			// A CRC-valid record from an earlier chain lifetime in this
			// region: PrevTS linkage rejects it (CkptTS is strictly
			// monotonic per disk, so a stale record can never name the
			// current head as its predecessor).
			break
		}
		c.Recs = append(c.Recs, rec)
		c.NextOff += n
	}
	return c, nil
}

// readCkptRec fetches and decodes the chain record at region offset off
// and returns it with its sector-rounded wire length. buf, if not nil,
// is the already fetched sector at off.
func readCkptRec(size, off int64, buf []byte, read func(p []byte, off int64) error) (CkptRec, int64, error) {
	if buf == nil {
		buf = make([]byte, min(size-off, SectorSize))
		if err := read(buf, off); err != nil {
			return CkptRec{}, 0, err
		}
	}
	_, span, err := ckptRecSpan(buf)
	if err != nil {
		return CkptRec{}, 0, err
	}
	if span > size-off {
		return CkptRec{}, 0, fmt.Errorf("%w: chain record of %d bytes does not fit its region", ErrBadCheckpoint, span)
	}
	if have := int64(len(buf)); span > have {
		whole := make([]byte, min(roundUp(span, SectorSize), size-off))
		copy(whole, buf)
		if err := read(whole[have:], off+have); err != nil {
			return CkptRec{}, 0, err
		}
		buf = whole
	}
	return DecodeCkptRec(buf)
}

// Materialize folds the chain into one full Checkpoint: the base
// tables with every delta's upserts and deletions applied in order,
// scalars from the head. Tables come out in canonical ID order.
func (c CkptChain) Materialize() Checkpoint {
	blocks := make(map[BlockID]BlockRec)
	lists := make(map[ListID]ListRec)
	for _, r := range c.Recs {
		for _, b := range r.Blocks {
			blocks[b.ID] = b
		}
		for _, li := range r.Lists {
			lists[li.ID] = li
		}
		for _, id := range r.DelBlocks {
			delete(blocks, id)
		}
		for _, id := range r.DelLists {
			delete(lists, id)
		}
	}
	head := c.Head()
	ck := Checkpoint{
		CkptTS:     head.CkptTS,
		FlushedSeq: head.FlushedSeq,
		NextTS:     head.NextTS,
		NextBlock:  head.NextBlock,
		NextList:   head.NextList,
		NextARU:    head.NextARU,
		Blocks:     make([]BlockRec, 0, len(blocks)),
		Lists:      make([]ListRec, 0, len(lists)),
	}
	for _, b := range blocks {
		ck.Blocks = append(ck.Blocks, b)
	}
	for _, li := range lists {
		ck.Lists = append(ck.Lists, li)
	}
	ck.SortTables()
	return ck
}
