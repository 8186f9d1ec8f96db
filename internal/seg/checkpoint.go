package seg

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"
)

// BlockRec is the persistent-state record of one logical block, as
// stored in the block-number-map and in checkpoints. It corresponds to
// the paper's block-number-map record: physical address (segment and
// slot), list membership and position (successor), and the timestamp of
// the last write (paper §4, Figure 3).
type BlockRec struct {
	ID   BlockID
	Seg  uint32 // segment holding the current version (if HasData)
	Slot uint32 // data slot within Seg (if HasData)
	Succ BlockID
	List ListID // NilList until the insertion commits (leak-sweep cue)
	TS   uint64 // timestamp of the last committed write/insert
	// HasData reports whether the block has ever been written; an
	// allocated-but-unwritten block reads as zeroes.
	HasData bool
}

// ListRec is the persistent-state record of one block list: its first
// and last member (paper §4, Figure 3 records "First"; the prototype
// also keeps the last block of each list).
type ListRec struct {
	ID    ListID
	First BlockID
	Last  BlockID
	// TS is the timestamp of the last structural change (link/unlink)
	// applied to the list. The live engine does not maintain it; it is
	// the recovery replay's version bound (REDO-only idempotence,
	// DESIGN.md §15) and is carried by v2 checkpoint records only —
	// the v1 wire format predates it and decodes it as zero, which is
	// always safe (replayed entries carry strictly larger timestamps
	// than anything a checkpoint covers).
	TS uint64
}

// Checkpoint is a snapshot of the complete persistent state. LLD
// writes checkpoints alternately into the two checkpoint regions;
// recovery loads the newest valid one and replays only segments whose
// Seq exceeds FlushedSeq. (Sprite LFS uses the same double-buffered
// checkpoint scheme; the paper's prototype inherits its log-structured
// substrate from LFS.)
type Checkpoint struct {
	// CkptTS orders checkpoints; recovery picks the largest valid one.
	CkptTS uint64
	// FlushedSeq is the Seq of the last segment written before this
	// checkpoint was taken. Segments with Seq <= FlushedSeq are fully
	// reflected in the tables below.
	FlushedSeq uint64
	// NextTS seeds the logical clock after recovery.
	NextTS uint64
	// NextBlock and NextList seed the identifier allocators (IDs are
	// never reused).
	NextBlock BlockID
	NextList  ListID
	// NextARU seeds the ARU identifier allocator.
	NextARU ARUID
	// Blocks and Lists are the table contents.
	Blocks []BlockRec
	Lists  []ListRec
}

// ErrBadCheckpoint reports a missing or corrupt checkpoint region.
var ErrBadCheckpoint = errors.New("seg: bad checkpoint")

// EncodeCheckpoint encodes c for layout l, returning only the used
// prefix of the region (sector-rounded), so writing a checkpoint costs
// I/O proportional to the live tables, not to the region's reserved
// worst case. It returns an error if the tables exceed the layout's
// MaxBlocks/MaxLists bounds.
func EncodeCheckpoint(l Layout, c Checkpoint) ([]byte, error) {
	if len(c.Blocks) > l.MaxBlocks {
		return nil, fmt.Errorf("seg: checkpoint has %d blocks, layout allows %d", len(c.Blocks), l.MaxBlocks)
	}
	if len(c.Lists) > l.MaxLists {
		return nil, fmt.Errorf("seg: checkpoint has %d lists, layout allows %d", len(c.Lists), l.MaxLists)
	}
	used := roundUp(int64(ckptHeaderBytes)+
		int64(len(c.Blocks))*ckptBlockRecBytes+
		int64(len(c.Lists))*ckptListRecBytes, SectorSize)
	buf := make([]byte, used)
	h := buf[:ckptHeaderBytes]
	binary.LittleEndian.PutUint32(h[0:], ckptMagic)
	binary.LittleEndian.PutUint64(h[4:], c.CkptTS)
	binary.LittleEndian.PutUint64(h[12:], c.FlushedSeq)
	binary.LittleEndian.PutUint64(h[20:], c.NextTS)
	binary.LittleEndian.PutUint64(h[28:], uint64(c.NextBlock))
	binary.LittleEndian.PutUint64(h[36:], uint64(c.NextList))
	binary.LittleEndian.PutUint64(h[44:], uint64(c.NextARU))
	binary.LittleEndian.PutUint32(h[52:], uint32(len(c.Blocks)))
	binary.LittleEndian.PutUint32(h[56:], uint32(len(c.Lists)))

	p := buf[ckptHeaderBytes:]
	off := 0
	for _, b := range c.Blocks {
		binary.LittleEndian.PutUint64(p[off:], uint64(b.ID))
		binary.LittleEndian.PutUint32(p[off+8:], b.Seg)
		binary.LittleEndian.PutUint32(p[off+12:], b.Slot)
		binary.LittleEndian.PutUint64(p[off+16:], uint64(b.Succ))
		binary.LittleEndian.PutUint64(p[off+24:], uint64(b.List))
		binary.LittleEndian.PutUint64(p[off+32:], b.TS)
		if b.HasData {
			p[off+40] = 1
		}
		off += ckptBlockRecBytes
	}
	for _, li := range c.Lists {
		binary.LittleEndian.PutUint64(p[off:], uint64(li.ID))
		binary.LittleEndian.PutUint64(p[off+8:], uint64(li.First))
		binary.LittleEndian.PutUint64(p[off+16:], uint64(li.Last))
		off += ckptListRecBytes
	}
	payloadCRC := crc32.Checksum(p[:off], crcTable)
	binary.LittleEndian.PutUint32(h[60:], payloadCRC)
	headerCRC := crc32.Checksum(h[:64], crcTable)
	binary.LittleEndian.PutUint32(h[64:], headerCRC)
	return buf, nil
}

// DecodeCheckpoint decodes and validates one checkpoint region.
func DecodeCheckpoint(buf []byte) (Checkpoint, error) {
	if len(buf) < ckptHeaderBytes {
		return Checkpoint{}, fmt.Errorf("%w: short buffer", ErrBadCheckpoint)
	}
	h := buf[:ckptHeaderBytes]
	if binary.LittleEndian.Uint32(h[0:]) != ckptMagic {
		return Checkpoint{}, fmt.Errorf("%w: bad magic", ErrBadCheckpoint)
	}
	if got, want := binary.LittleEndian.Uint32(h[64:]), crc32.Checksum(h[:64], crcTable); got != want {
		return Checkpoint{}, fmt.Errorf("%w: bad header checksum", ErrBadCheckpoint)
	}
	nb := int(binary.LittleEndian.Uint32(h[52:]))
	nl := int(binary.LittleEndian.Uint32(h[56:]))
	payloadLen := nb*ckptBlockRecBytes + nl*ckptListRecBytes
	if ckptHeaderBytes+payloadLen > len(buf) {
		return Checkpoint{}, fmt.Errorf("%w: payload does not fit (%d blocks, %d lists)", ErrBadCheckpoint, nb, nl)
	}
	p := buf[ckptHeaderBytes : ckptHeaderBytes+payloadLen]
	if got, want := binary.LittleEndian.Uint32(h[60:]), crc32.Checksum(p, crcTable); got != want {
		return Checkpoint{}, fmt.Errorf("%w: bad payload checksum", ErrBadCheckpoint)
	}
	c := Checkpoint{
		CkptTS:     binary.LittleEndian.Uint64(h[4:]),
		FlushedSeq: binary.LittleEndian.Uint64(h[12:]),
		NextTS:     binary.LittleEndian.Uint64(h[20:]),
		NextBlock:  BlockID(binary.LittleEndian.Uint64(h[28:])),
		NextList:   ListID(binary.LittleEndian.Uint64(h[36:])),
		NextARU:    ARUID(binary.LittleEndian.Uint64(h[44:])),
		Blocks:     make([]BlockRec, 0, nb),
		Lists:      make([]ListRec, 0, nl),
	}
	off := 0
	for i := 0; i < nb; i++ {
		c.Blocks = append(c.Blocks, BlockRec{
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
	for i := 0; i < nl; i++ {
		c.Lists = append(c.Lists, ListRec{
			ID:    ListID(binary.LittleEndian.Uint64(p[off:])),
			First: BlockID(binary.LittleEndian.Uint64(p[off+8:])),
			Last:  BlockID(binary.LittleEndian.Uint64(p[off+16:])),
		})
		off += ckptListRecBytes
	}
	return c, nil
}

// SortTables puts the checkpoint tables into canonical (ID) order so
// that encodings are deterministic.
func (c *Checkpoint) SortTables() {
	slices.SortFunc(c.Blocks, func(a, b BlockRec) int { return cmp.Compare(a.ID, b.ID) })
	slices.SortFunc(c.Lists, func(a, b ListRec) int { return cmp.Compare(a.ID, b.ID) })
}
