package seg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Trailer is the per-segment metadata stored in the segment's final
// sector. A segment on disk is valid iff its trailer decodes and both
// checksums match; because the trailer sits at the very end, a torn
// segment write cannot yield a valid trailer over partial contents.
type Trailer struct {
	// Seq is the position of this segment in the logical log. Seq is
	// strictly increasing across segment writes; recovery replays
	// valid segments in Seq order. 0 means "never written".
	Seq uint64
	// DataBlocks is the number of data blocks in the data area.
	DataBlocks uint32
	// EntryCount is the number of summary entries.
	EntryCount uint32
	// EntryBytes is the encoded size of the entry region (entries are
	// variable-length).
	EntryBytes uint32
	// entriesCRC protects the encoded entry region.
	entriesCRC uint32
}

// ErrBadSegment reports an unreadable or corrupt segment.
var ErrBadSegment = errors.New("seg: bad segment")

// trailerBytes is the encoded size of the trailer within its sector:
// magic, seq, data blocks, entry count, entry bytes, entries CRC and
// the trailer CRC itself.
const trailerBytes = 4 + 8 + 4 + 4 + 4 + 4 + 4

// encodeTrailer writes t into the final sector of buf (len(buf) must be
// the full segment size).
func encodeTrailer(buf []byte, t Trailer) {
	sec := buf[len(buf)-SectorSize:]
	for i := range sec {
		sec[i] = 0
	}
	binary.LittleEndian.PutUint32(sec[0:], trailerMagic)
	binary.LittleEndian.PutUint64(sec[4:], t.Seq)
	binary.LittleEndian.PutUint32(sec[12:], t.DataBlocks)
	binary.LittleEndian.PutUint32(sec[16:], t.EntryCount)
	binary.LittleEndian.PutUint32(sec[20:], t.EntryBytes)
	binary.LittleEndian.PutUint32(sec[24:], t.entriesCRC)
	crc := crc32.Checksum(sec[:28], crcTable)
	binary.LittleEndian.PutUint32(sec[28:], crc)
}

// DecodeTrailer decodes the trailer from the final sector of a segment
// image (buf may be the full segment or just its last sector).
func DecodeTrailer(buf []byte) (Trailer, error) {
	if len(buf) < SectorSize {
		return Trailer{}, fmt.Errorf("%w: short trailer buffer", ErrBadSegment)
	}
	sec := buf[len(buf)-SectorSize:]
	if binary.LittleEndian.Uint32(sec[0:]) != trailerMagic {
		return Trailer{}, fmt.Errorf("%w: bad trailer magic", ErrBadSegment)
	}
	if got, want := binary.LittleEndian.Uint32(sec[28:]), crc32.Checksum(sec[:28], crcTable); got != want {
		return Trailer{}, fmt.Errorf("%w: bad trailer checksum", ErrBadSegment)
	}
	return Trailer{
		Seq:        binary.LittleEndian.Uint64(sec[4:]),
		DataBlocks: binary.LittleEndian.Uint32(sec[12:]),
		EntryCount: binary.LittleEndian.Uint32(sec[16:]),
		EntryBytes: binary.LittleEndian.Uint32(sec[20:]),
		entriesCRC: binary.LittleEndian.Uint32(sec[24:]),
	}, nil
}

// entriesRegion returns the offset and length of the sector-aligned
// entry region for a segment whose encoded entries take entryBytes.
func entriesRegion(segBytes, entryBytes int) (off, length int) {
	length = int(roundUp(int64(entryBytes), SectorSize))
	off = segBytes - SectorSize - length
	return off, length
}

// DecodeEntriesFromSegment extracts the summary entries of a full
// segment image whose trailer is t.
func DecodeEntriesFromSegment(segment []byte, t Trailer) ([]Entry, error) {
	off, length := entriesRegion(len(segment), int(t.EntryBytes))
	if off < 0 {
		return nil, fmt.Errorf("%w: entry region does not fit (%d bytes)", ErrBadSegment, t.EntryBytes)
	}
	region := segment[off : off+length]
	if got := crc32.Checksum(region, crcTable); got != t.entriesCRC {
		return nil, fmt.Errorf("%w: bad entries checksum", ErrBadSegment)
	}
	return DecodeEntries(region, int(t.EntryCount))
}

// Builder accumulates data blocks and summary entries for one segment
// and seals them into a full segment image. The data area grows from
// the front while the summary grows from the back (so a segment can be
// all data, all summary — the ARU-latency experiment fills segments
// with nothing but commit records — or any mix).
//
// A builder is reused for many images, and Reset does not clear its
// buffer. Instead the builder remembers which bytes an earlier
// incarnation may have left non-zero — the data prefix [0, staleLo)
// and the summary suffix [staleHi, SegBytes) — and Seal clears the part
// of them the new image does not overwrite. A sealed image is therefore
// byte for byte what a fresh builder produces from the same blocks and
// entries; bytes past the added blocks are undefined until then.
type Builder struct {
	layout     Layout
	buf        []byte
	nblocks    int
	entries    []Entry
	entryBytes int
	staleLo    int // [0, staleLo) may hold bytes of added or reserved blocks
	staleHi    int // [staleHi, SegBytes) may hold an earlier image's summary
}

// NewBuilder returns an empty Builder for layout l.
func NewBuilder(l Layout) *Builder {
	return &Builder{
		layout:  l,
		buf:     make([]byte, l.SegBytes),
		staleHi: l.SegBytes,
	}
}

// Reset discards all accumulated contents. The buffer is not cleared
// here: Seal guarantees the cleanliness of the image it returns.
func (b *Builder) Reset() {
	b.nblocks = 0
	b.entries = b.entries[:0]
	b.entryBytes = 0
}

// Empty reports whether the builder holds no blocks and no entries.
func (b *Builder) Empty() bool {
	return b.nblocks == 0 && len(b.entries) == 0
}

// DataBlocks returns the number of data blocks added so far.
func (b *Builder) DataBlocks() int { return b.nblocks }

// EntryCount returns the number of summary entries added so far.
func (b *Builder) EntryCount() int { return len(b.entries) }

// Fits reports whether extraBlocks data blocks plus extraEntries more
// summary entries (counted at the worst-case entry size) still fit.
func (b *Builder) Fits(extraBlocks, extraEntries int) bool {
	return b.FitsBytes(extraBlocks, extraEntries*MaxEntrySize)
}

// FitsBytes reports whether extraBlocks data blocks plus
// extraEntryBytes more bytes of summary entries still fit. Callers that
// know the exact entry sizes avoid the worst-case padding of Fits.
func (b *Builder) FitsBytes(extraBlocks, extraEntryBytes int) bool {
	dataBytes := (b.nblocks + extraBlocks) * b.layout.BlockSize
	_, entryLen := entriesRegion(b.layout.SegBytes, b.entryBytes+extraEntryBytes)
	return dataBytes+entryLen+SectorSize <= b.layout.SegBytes
}

// AddBlock copies one logical block of data into the next data slot and
// returns the slot index. The caller must have checked Fits(1, ...).
func (b *Builder) AddBlock(data []byte) uint32 {
	if len(data) != b.layout.BlockSize {
		panic(fmt.Sprintf("seg: AddBlock got %d bytes, want %d", len(data), b.layout.BlockSize))
	}
	copy(b.ReserveBlock(), data)
	return b.CommitBlock()
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
	off := b.nblocks * b.layout.BlockSize
	end := off + b.layout.BlockSize
	if end > b.staleLo {
		b.staleLo = end
	}
	return b.buf[off:end]
}

// CommitBlock adds the slot the last ReserveBlock returned as the next
// data block and returns its index.
func (b *Builder) CommitBlock() uint32 {
	b.nblocks++
	return uint32(b.nblocks - 1)
}

// BlockData returns the in-buffer contents of data slot i. The returned
// slice aliases the builder and is valid until the next Reset.
func (b *Builder) BlockData(slot uint32) []byte {
	off := int(slot) * b.layout.BlockSize
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

// Seal finalizes the segment with log sequence number seq and returns
// the full segment image. The image aliases the builder's buffer; the
// caller must copy or write it out before the builder is reused.
func (b *Builder) Seal(seq uint64) []byte {
	off, length := entriesRegion(b.layout.SegBytes, b.entryBytes)
	// The image writes its data blocks, its entry region and the trailer
	// sector; the gap between the first two must read as zeros, so clear
	// whatever earlier incarnations left in it.
	gapLo := b.nblocks * b.layout.BlockSize
	lo := min(max(b.staleLo, gapLo), off) // stale data reaches up to lo
	hi := min(max(b.staleHi, gapLo), off) // stale summary starts at hi
	if lo >= hi {
		clear(b.buf[gapLo:off])
	} else {
		clear(b.buf[gapLo:lo])
		clear(b.buf[hi:off])
	}
	b.staleLo, b.staleHi = gapLo, off

	region := b.buf[off : off+length]
	clear(region)
	enc := region[:0]
	for _, e := range b.entries {
		enc = AppendEntry(enc, e)
	}
	t := Trailer{
		Seq:        seq,
		DataBlocks: uint32(b.nblocks),
		EntryCount: uint32(len(b.entries)),
		EntryBytes: uint32(b.entryBytes),
		entriesCRC: crc32.Checksum(region, crcTable),
	}
	encodeTrailer(b.buf, t)
	return b.buf
}
