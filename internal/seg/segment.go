package seg

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Trailer is the per-segment metadata stored in the segment's final
// sector. A segment on disk is valid iff its trailer decodes and both
// checksums match. A segment image is data blocks · entry region ·
// trailer with no gap, written as one extent that ends at the segment's
// last sector: the trailer is the last sector of the one write, so a torn
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
	// FrontPacked marks the older layout, told by the trailer magic: the
	// data area starts at the segment's first byte and a gap separates it
	// from the entry region. Nothing writes it any more; images that hold
	// such segments read unchanged.
	FrontPacked bool
	// entriesCRC protects the encoded entry region.
	entriesCRC uint32
}

// ErrBadSegment reports an unreadable or corrupt segment.
var ErrBadSegment = errors.New("seg: bad segment")

// trailerBytes is the encoded size of the trailer within its sector:
// magic, seq, data blocks, entry count, entry bytes, entries CRC and
// the trailer CRC itself.
const trailerBytes = 4 + 8 + 4 + 4 + 4 + 4 + 4

// encodeTrailer writes t into sec, one sector, under the tail-packed
// magic: nothing encodes the front-packed layout any more.
func encodeTrailer(sec []byte, t Trailer) {
	binary.LittleEndian.PutUint32(sec[0:], trailerMagic)
	binary.LittleEndian.PutUint64(sec[4:], t.Seq)
	binary.LittleEndian.PutUint32(sec[12:], t.DataBlocks)
	binary.LittleEndian.PutUint32(sec[16:], t.EntryCount)
	binary.LittleEndian.PutUint32(sec[20:], t.EntryBytes)
	binary.LittleEndian.PutUint32(sec[24:], t.entriesCRC)
	crc := crc32.Checksum(sec[:28], crcTable)
	binary.LittleEndian.PutUint32(sec[28:], crc)
	clear(sec[trailerBytes:SectorSize])
}

// DecodeTrailer decodes the trailer from the final sector of a segment
// image (buf may be the full segment, a sealed image or just the last
// sector). Whether the extent the trailer describes fits a segment is
// DataOff's to say: it takes the layout.
func DecodeTrailer(buf []byte) (Trailer, error) {
	if len(buf) < SectorSize {
		return Trailer{}, fmt.Errorf("%w: short trailer buffer", ErrBadSegment)
	}
	sec := buf[len(buf)-SectorSize:]
	magic := binary.LittleEndian.Uint32(sec[0:])
	if magic != trailerMagic && magic != trailerMagicFront {
		return Trailer{}, fmt.Errorf("%w: bad trailer magic", ErrBadSegment)
	}
	if got, want := binary.LittleEndian.Uint32(sec[28:]), crc32.Checksum(sec[:28], crcTable); got != want {
		return Trailer{}, fmt.Errorf("%w: bad trailer checksum", ErrBadSegment)
	}
	return Trailer{
		Seq:         binary.LittleEndian.Uint64(sec[4:]),
		DataBlocks:  binary.LittleEndian.Uint32(sec[12:]),
		EntryCount:  binary.LittleEndian.Uint32(sec[16:]),
		EntryBytes:  binary.LittleEndian.Uint32(sec[20:]),
		FrontPacked: magic == trailerMagicFront,
		entriesCRC:  binary.LittleEndian.Uint32(sec[24:]),
	}, nil
}

// SummaryBytes returns the size of the segment's summary: the
// sector-aligned entry region and the trailer sector, which in either
// layout are the segment's last bytes.
func (t Trailer) SummaryBytes() int {
	return entryRegionBytes(int(t.EntryBytes)) + SectorSize
}

// ImageBytes returns the size of the segment image t describes: data
// blocks and summary.
func (t Trailer) ImageBytes(l Layout) int64 {
	return int64(t.DataBlocks)*int64(l.BlockSize) + int64(t.SummaryBytes())
}

// DataOff returns the offset of data slot 0 from the start of the
// segment. It is derived, not stored: a tail-packed image ends at the
// segment's last sector, a front-packed one starts at its first byte. A
// trailer whose image does not fit a segment of l — nothing this program
// writes; the medium failed or the bytes are not ours — is a bad segment.
func (t Trailer) DataOff(l Layout) (int, error) {
	n := t.ImageBytes(l)
	if int(t.DataBlocks) > l.BlocksPerSeg() || n > int64(l.SegBytes) {
		return 0, fmt.Errorf("%w: %d data blocks and %d entry bytes do not fit a %d-byte segment",
			ErrBadSegment, t.DataBlocks, t.EntryBytes, l.SegBytes)
	}
	if t.FrontPacked {
		return 0, nil
	}
	return l.SegBytes - int(n), nil
}

// entryRegionBytes returns the length of the sector-aligned entry region
// of a segment whose encoded entries take entryBytes.
func entryRegionBytes(entryBytes int) int {
	return int(roundUp(int64(entryBytes), SectorSize))
}

// DecodeEntriesFromSegment extracts the summary entries of the segment
// whose trailer is t. In either layout the entry region lies directly
// below the trailer sector, so segment may be the full segment or any
// suffix of it that holds both (a sealed image is one).
func DecodeEntriesFromSegment(segment []byte, t Trailer) ([]Entry, error) {
	length := entryRegionBytes(int(t.EntryBytes))
	off := len(segment) - SectorSize - length
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
// and seals them into a segment image: the data blocks from the front of
// its buffer, then — placed by Seal directly after the last block — the
// entry region and the trailer sector (so a segment can be all data, all
// summary — the ARU-latency experiment fills segments with nothing but
// commit records — or any mix, and the image is as long as what it
// holds).
//
// A builder is reused for many images, and Reset does not clear its
// buffer: an image has no gap, Seal writes every byte of it, and bytes
// past the added blocks are undefined until then. A sealed image is
// therefore byte for byte what a fresh builder produces from the same
// blocks and entries.
type Builder struct {
	layout     Layout
	buf        []byte
	nblocks    int
	entries    []Entry
	entryBytes int
}

// NewBuilder returns an empty Builder for layout l.
func NewBuilder(l Layout) *Builder {
	return &Builder{layout: l, buf: make([]byte, l.SegBytes)}
}

// Reset discards all accumulated contents. The buffer is not cleared:
// Seal writes every byte of the image it returns.
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
	return dataBytes+entryRegionBytes(b.entryBytes+extraEntryBytes)+SectorSize <= b.layout.SegBytes
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
	return b.BlockData(uint32(b.nblocks))
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
// its image — data blocks, entry region, trailer sector, nothing else —
// which belongs at the end of the segment: its last sector is the
// segment's last sector. The image aliases the builder's buffer; the
// caller must copy or write it out before the builder is reused.
func (b *Builder) Seal(seq uint64) []byte {
	off := b.nblocks * b.layout.BlockSize
	length := entryRegionBytes(b.entryBytes)
	region := b.buf[off : off+length]
	enc := region[:0]
	for _, e := range b.entries {
		enc = AppendEntry(enc, e)
	}
	clear(region[len(enc):])
	end := off + length + SectorSize
	encodeTrailer(b.buf[off+length:end], Trailer{
		Seq:        seq,
		DataBlocks: uint32(b.nblocks),
		EntryCount: uint32(len(b.entries)),
		EntryBytes: uint32(b.entryBytes),
		entriesCRC: crc32.Checksum(region, crcTable),
	})
	return b.buf[:end]
}
