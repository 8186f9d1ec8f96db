package seg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// A segment on the device is a stack of chunks, built from the segment's
// last sector downward. A chunk is what one seal wrote, as one extent:
// ascending on the device, its entry region, its data blocks and its
// header sector, with no gap. Chunk 1 ends at the segment's last sector —
// its header is the segment's trailer — and chunk k+1 ends where chunk k
// begins. The header is the last sector of the one write that carries the
// chunk, and a sector is written whole or not at all, so a torn write
// leaves no valid header over partial contents; the write lies below
// everything written before it, so it cannot damage a chunk a device sync
// has already covered.
//
// Data slots are taken downward from the header, so where a block lies is
// known when it is added, before the size of the entry region is. A slot
// number is that place: the block's sector offset within its segment,
// flagged SlotSector.

// SlotSector is set in every slot number a Builder hands out. Slots of the
// retired one-image layouts, which counted blocks, lacked it.
const SlotSector = 1 << 31

// SlotOff returns the offset, from the start of its segment, of the block
// at slot.
func SlotOff(slot uint32) int {
	return int(slot&^SlotSector) * SectorSize
}

// Trailer is a chunk's metadata, stored in the chunk's final sector — for
// chunk 1 the segment's final sector, hence the name. A chunk on disk is
// valid iff its header decodes and both checksums match.
type Trailer struct {
	// Seq is the position of this chunk in the logical log. Seq is
	// strictly increasing across seals, and the chunks of one segment
	// carry consecutive values; recovery replays valid chunks in Seq
	// order. 0 means "never written".
	Seq uint64
	// DataBlocks is the number of data blocks in the data area.
	DataBlocks uint32
	// EntryCount is the number of summary entries.
	EntryCount uint32
	// EntryBytes is the encoded size of the entry region (entries are
	// variable-length).
	EntryBytes uint32
	// dataBytes is the length of the data area, which lies between the
	// entry region and the header.
	dataBytes uint32
	// entriesCRC protects the encoded entry region.
	entriesCRC uint32
	// crc is the header's own checksum, and the seed of the header of the
	// chunk below.
	crc uint32
}

// ErrBadSegment reports an unreadable or corrupt segment.
var ErrBadSegment = errors.New("seg: bad segment")

// headerBytes is the encoded size of a chunk header within its sector:
// magic, seq, data blocks, entry count, entry bytes, the entries CRC, the
// length of the data area, and last the header CRC.
const headerBytes = 4 + 8 + 4 + 4 + 4 + 4 + 4 + 4

// encodeHeader writes t into sec, one sector, as a chunk header whose
// checksum continues seed — the checksum of the header of the chunk above,
// 0 for chunk 1 — and returns that checksum.
func encodeHeader(sec []byte, t Trailer, seed uint32) uint32 {
	binary.LittleEndian.PutUint32(sec[0:], trailerMagicChunk)
	binary.LittleEndian.PutUint64(sec[4:], t.Seq)
	binary.LittleEndian.PutUint32(sec[12:], t.DataBlocks)
	binary.LittleEndian.PutUint32(sec[16:], t.EntryCount)
	binary.LittleEndian.PutUint32(sec[20:], t.EntryBytes)
	binary.LittleEndian.PutUint32(sec[24:], t.entriesCRC)
	binary.LittleEndian.PutUint32(sec[28:], t.dataBytes)
	crc := crc32.Update(seed, crcTable, sec[:headerBytes-4])
	binary.LittleEndian.PutUint32(sec[headerBytes-4:], crc)
	clear(sec[headerBytes:SectorSize])
	return crc
}

// decodeHeader decodes the chunk header in sec, one sector, which must
// checksum under seed. A retired one-image trailer is ErrRetiredFormat.
func decodeHeader(sec []byte, seed uint32) (Trailer, error) {
	switch magic := binary.LittleEndian.Uint32(sec[0:]); magic {
	case trailerMagicChunk:
	case retiredFrontMagic, retiredTailMagic:
		return Trailer{}, fmt.Errorf("%w: a one-image segment trailer (magic %#x)", ErrRetiredFormat, magic)
	default:
		return Trailer{}, fmt.Errorf("%w: bad trailer magic", ErrBadSegment)
	}
	t := Trailer{crc: binary.LittleEndian.Uint32(sec[headerBytes-4:])}
	if want := crc32.Update(seed, crcTable, sec[:headerBytes-4]); t.crc != want {
		return Trailer{}, fmt.Errorf("%w: bad trailer checksum", ErrBadSegment)
	}
	t.Seq = binary.LittleEndian.Uint64(sec[4:])
	t.DataBlocks = binary.LittleEndian.Uint32(sec[12:])
	t.EntryCount = binary.LittleEndian.Uint32(sec[16:])
	t.EntryBytes = binary.LittleEndian.Uint32(sec[20:])
	t.entriesCRC = binary.LittleEndian.Uint32(sec[24:])
	t.dataBytes = binary.LittleEndian.Uint32(sec[28:])
	return t, nil
}

// DecodeTrailer decodes the header of chunk 1 from the final sector of a
// segment (buf may be the full segment, a sealed chunk 1 or just the last
// sector). Whether the extent the header describes fits a segment is
// DataOff's to say: it takes the layout.
func DecodeTrailer(buf []byte) (Trailer, error) {
	if len(buf) < SectorSize {
		return Trailer{}, fmt.Errorf("%w: short trailer buffer", ErrBadSegment)
	}
	return decodeHeader(buf[len(buf)-SectorSize:], 0)
}

// SummaryBytes returns the size of the chunk's summary: the
// sector-aligned entry region and the header sector.
func (t Trailer) SummaryBytes() int {
	return entryRegionBytes(int(t.EntryBytes)) + SectorSize
}

// ImageBytes returns the size of the chunk t describes: data blocks and
// summary.
func (t Trailer) ImageBytes(l Layout) int64 {
	return int64(t.DataBlocks)*int64(l.BlockSize) + int64(t.SummaryBytes())
}

// extent returns where the chunk t heads starts and where its data area
// does, as offsets into a segment of l in which the header sector ends at
// top. A header whose chunk does not fit below top — nothing this program
// writes; the medium failed or the bytes are not ours — is a bad segment.
func (t Trailer) extent(l Layout, top int) (start, dataOff int, err error) {
	n := t.ImageBytes(l)
	if int(t.DataBlocks) > l.BlocksPerSeg() || n > int64(top) || int64(t.dataBytes) != int64(t.DataBlocks)*int64(l.BlockSize) {
		return 0, 0, fmt.Errorf("%w: %d data blocks and %d entry bytes do not fit the %d bytes below their header",
			ErrBadSegment, t.DataBlocks, t.EntryBytes, top-SectorSize)
	}
	return top - int(n), top - SectorSize - int(t.dataBytes), nil
}

// DataOff returns the offset of the data area of chunk 1 from the start
// of the segment. A header whose chunk does not fit a segment of l is a
// bad segment.
func (t Trailer) DataOff(l Layout) (int, error) {
	_, dataOff, err := t.extent(l, l.SegBytes)
	return dataOff, err
}

// entryRegionBytes returns the length of the sector-aligned entry region
// of a chunk whose encoded entries take entryBytes.
func entryRegionBytes(entryBytes int) int {
	return int(roundUp(int64(entryBytes), SectorSize))
}

// DecodeEntriesFromSegment extracts the summary entries of the chunk
// whose header is t and is the last sector of segment: the full segment
// for chunk 1, the segment up to Chunk.End for another, or any suffix of
// either that holds the chunk (a sealed image is one).
func DecodeEntriesFromSegment(segment []byte, t Trailer) ([]Entry, error) {
	off, length := t.entryRegion(len(segment))
	if off < 0 {
		return nil, fmt.Errorf("%w: entry region does not fit (%d bytes)", ErrBadSegment, t.EntryBytes)
	}
	return t.DecodeEntryRegion(segment[off : off+length])
}

// entryRegion returns where the sector-aligned entry region of the chunk
// t heads lies when the header sector ends at end: below the data area.
func (t Trailer) entryRegion(end int) (off, length int) {
	length = entryRegionBytes(int(t.EntryBytes))
	return end - SectorSize - int(t.dataBytes) - length, length
}

// DecodeEntryRegion decodes region, the bytes EntryRegion names, after
// checking them against the checksum t carries: what a reader that
// fetched the region alone calls in place of DecodeEntriesFromSegment.
func (t Trailer) DecodeEntryRegion(region []byte) ([]Entry, error) {
	if got := crc32.Checksum(region, crcTable); got != t.entriesCRC {
		return nil, fmt.Errorf("%w: bad entries checksum", ErrBadSegment)
	}
	return DecodeEntries(region, int(t.EntryCount))
}

// Chunk is one chunk of a segment as Walk found it: its header and its
// place, as offsets from the start of the segment.
type Chunk struct {
	Trailer
	Start   int // first byte of the chunk
	End     int // one past its header sector
	DataOff int // first byte of its data area
}

// EntryRegion returns the segment offset and the length of the chunk's
// sector-aligned entry region, from its header and End alone. A negative
// offset means the region the header describes does not fit below it.
func (c Chunk) EntryRegion() (off, length int) { return c.entryRegion(c.End) }

// Walk returns the chunks of segment, a full segment of l, from chunk 1
// down. The header of the next chunk is looked for directly below each
// chunk and accepted only if its checksum, seeded with the header above
// it, holds, its sequence number is the one above plus one, and its
// extent fits what is left of the segment — so bytes of a previous
// incarnation of the segment, or user data that happens to lie there, do
// not join the chain, and a torn write of chunk k hides chunk k and
// nothing above it. The error is chunk 1's: the segment holds no valid
// chunk at all (ErrBadSegment), or a retired trailer (ErrRetiredFormat).
// Below chunk 1 any bytes that are not the next header, a retired
// trailer's magic included, end the walk.
func Walk(l Layout, segment []byte) ([]Chunk, error) {
	if len(segment) != l.SegBytes {
		return nil, fmt.Errorf("%w: %d bytes are not a segment of %d", ErrBadSegment, len(segment), l.SegBytes)
	}
	return WalkSectors(l, func(off int) ([]byte, error) { return segment[off : off+SectorSize], nil })
}

// WalkSectors is Walk over a segment that is fetched a header at a time:
// sector returns the sector at offset off of the segment. An error that
// is neither ErrBadSegment nor ErrRetiredFormat is sector's.
func WalkSectors(l Layout, sector func(off int) ([]byte, error)) ([]Chunk, error) {
	var chunks []Chunk
	for top, seed := l.SegBytes, uint32(0); top >= SectorSize; {
		sec, err := sector(top - SectorSize)
		if err != nil {
			return nil, err
		}
		t, err := decodeHeader(sec, seed)
		if err == nil && len(chunks) > 0 && t.Seq != chunks[len(chunks)-1].Seq+1 {
			break
		}
		var start, dataOff int
		if err == nil {
			start, dataOff, err = t.extent(l, top)
		}
		if err != nil {
			if len(chunks) == 0 {
				return nil, err
			}
			break
		}
		chunks = append(chunks, Chunk{Trailer: t, Start: start, End: top, DataOff: dataOff})
		top, seed = start, t.crc
	}
	return chunks, nil
}

// Builder accumulates data blocks and summary entries for the chunks of
// one segment and seals them, chunk after chunk, into a buffer the size
// of the segment, at the offsets they have on the device: a chunk can be
// all data, all summary — the ARU-latency experiment fills segments with
// nothing but commit records — or any mix, and is as long as what it
// holds.
//
// A builder is reused for many segments, and Reset does not clear its
// buffer: a chunk has no gap, Seal writes every byte of it that the added
// blocks did not, and bytes below the open chunk are undefined until
// then. The bytes of a segment's chunks are therefore exactly what a
// fresh builder produces from the same blocks, entries and seals.
type Builder struct {
	layout Layout
	buf    []byte
	// top is where the open chunk ends: the segment's size, then the start
	// of each chunk sealed. seed is the header checksum of the chunk above
	// it.
	top    int
	seed   uint32
	chunks int
	// The open chunk.
	nblocks    int
	entries    []Entry
	entryBytes int
}

// NewBuilder returns an empty Builder for layout l.
func NewBuilder(l Layout) *Builder {
	return &Builder{layout: l, buf: make([]byte, l.SegBytes), top: l.SegBytes}
}

// Reset discards all accumulated contents, sealed chunks included: the
// builder starts a new segment. The buffer is not cleared: Seal writes
// every byte of the chunk it returns.
func (b *Builder) Reset() {
	b.top, b.seed, b.chunks = b.layout.SegBytes, 0, 0
	b.nblocks = 0
	b.entries = b.entries[:0]
	b.entryBytes = 0
}

// Empty reports whether the open chunk holds no blocks and no entries.
func (b *Builder) Empty() bool {
	return b.nblocks == 0 && len(b.entries) == 0
}

// Chunks returns the number of chunks sealed since the last Reset.
func (b *Builder) Chunks() int { return b.chunks }

// Top returns the offset in the segment at which the open chunk will end:
// where the chunk sealed last starts, the segment's size before the first
// seal.
func (b *Builder) Top() int { return b.top }

// DataBlocks returns the number of data blocks added to the open chunk.
func (b *Builder) DataBlocks() int { return b.nblocks }

// EntryCount returns the number of summary entries added to the open
// chunk.
func (b *Builder) EntryCount() int { return len(b.entries) }

// Fits reports whether extraBlocks data blocks plus extraEntries more
// summary entries (counted at the worst-case entry size) still fit the
// open chunk, i.e. what the sealed chunks left of the segment.
func (b *Builder) Fits(extraBlocks, extraEntries int) bool {
	return b.FitsBytes(extraBlocks, extraEntries*MaxEntrySize)
}

// FitsBytes reports whether extraBlocks data blocks plus
// extraEntryBytes more bytes of summary entries still fit. Callers that
// know the exact entry sizes avoid the worst-case padding of Fits.
func (b *Builder) FitsBytes(extraBlocks, extraEntryBytes int) bool {
	dataBytes := (b.nblocks + extraBlocks) * b.layout.BlockSize
	return dataBytes+entryRegionBytes(b.entryBytes+extraEntryBytes)+SectorSize <= b.top
}

// AddBlock copies one logical block of data into the next data slot and
// returns the slot number. The caller must have checked Fits(1, ...).
func (b *Builder) AddBlock(data []byte) uint32 {
	if len(data) != b.layout.BlockSize {
		panic(fmt.Sprintf("seg: AddBlock got %d bytes, want %d", len(data), b.layout.BlockSize))
	}
	copy(b.ReserveBlock(), data)
	return b.CommitBlock()
}

// nextBlockOff is the offset of the next data slot: slots are taken
// downward from the open chunk's header sector.
func (b *Builder) nextBlockOff() int {
	return b.top - SectorSize - (b.nblocks+1)*b.layout.BlockSize
}

// ReserveBlock returns the next data slot for the caller to fill in
// place — a device read straight into the image, say — without adding
// it yet: CommitBlock adds it, and a reservation that is never committed
// (the fill failed) costs nothing, the next ReserveBlock returns the
// same slot. The caller must have checked Fits(1, ...), and must write
// all BlockSize bytes before committing.
func (b *Builder) ReserveBlock() []byte {
	if !b.Fits(1, 0) {
		panic("seg: ReserveBlock on full segment")
	}
	off := b.nextBlockOff()
	return b.buf[off : off+b.layout.BlockSize]
}

// CommitBlock adds the slot the last ReserveBlock returned as the next
// data block and returns its slot number, which is final: the block's
// sector offset in the segment, flagged SlotSector.
func (b *Builder) CommitBlock() uint32 {
	slot := SlotSector | uint32(b.nextBlockOff()/SectorSize)
	b.nblocks++
	return slot
}

// BlockData returns the in-buffer contents of the data slot a CommitBlock
// since the last Reset returned, of the open chunk or a sealed one. The
// returned slice aliases the builder and is valid until the next Reset.
// It reads nothing a later add or seal changes, so a reader that was
// handed the slot may call it while the builder is being added to.
func (b *Builder) BlockData(slot uint32) []byte {
	off := SlotOff(slot)
	return b.buf[off : off+b.layout.BlockSize]
}

// AddEntry appends one summary entry. The caller must have checked
// capacity (Fits/FitsBytes); the internal check uses the entry's exact
// encoded size, so byte-accurate reservations are honored.
func (b *Builder) AddEntry(e Entry) {
	if !b.FitsBytes(0, EncodedSize(e.Kind)) {
		panic("seg: AddEntry on full segment")
	}
	b.entries = append(b.entries, e)
	b.entryBytes += EncodedSize(e.Kind)
}

// Seal finalizes the open chunk with log sequence number seq and returns
// it — entry region, data blocks, header sector, nothing else — which
// belongs in the segment directly below the chunk sealed before it (Top
// says where, after the call), the first at the segment's end. The builder
// then holds an empty open chunk below this one. The returned chunk
// aliases the builder's buffer, which the following chunks do not touch
// where this one lies: it stays valid until the next Reset.
func (b *Builder) Seal(seq uint64) []byte {
	hdr := b.top - SectorSize
	dataBytes := b.nblocks * b.layout.BlockSize
	length := entryRegionBytes(b.entryBytes)
	start := hdr - dataBytes - length
	if start < 0 {
		panic("seg: Seal on full segment")
	}
	region := b.buf[start : start+length]
	enc := region[:0]
	for _, e := range b.entries {
		enc = AppendEntry(enc, e)
	}
	clear(region[len(enc):])
	b.seed = encodeHeader(b.buf[hdr:b.top], Trailer{
		Seq:        seq,
		DataBlocks: uint32(b.nblocks),
		EntryCount: uint32(len(b.entries)),
		EntryBytes: uint32(b.entryBytes),
		dataBytes:  uint32(dataBytes),
		entriesCRC: crc32.Checksum(region, crcTable),
	}, b.seed)
	chunk := b.buf[start:b.top]
	b.top = start
	b.chunks++
	b.nblocks = 0
	b.entries = b.entries[:0]
	b.entryBytes = 0
	return chunk
}
