package seg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"slices"
	"testing"
)

// built is one chunk (or one older-format image) a test put into a
// segment: what it holds and, for a chunk, where.
type built struct {
	seq     uint64
	blocks  [][]byte // in the order they were added
	slots   []uint32 // the slot of each block
	entries []Entry  // one write entry per block, then the others
	start   int      // a chunk's extent in its segment
	end     int
}

// randomEntry returns a random entry of a random kind.
func randomEntry(rng *rand.Rand) Entry {
	kinds := allKinds()
	return canonical(Entry{
		Kind:  kinds[rng.Intn(len(kinds))],
		ARU:   ARUID(rng.Uint32()),
		TS:    rng.Uint64(),
		Block: BlockID(rng.Uint32()),
		List:  ListID(rng.Uint32()),
		Pred:  BlockID(rng.Uint32()),
		Slot:  rng.Uint32(),
	})
}

// addRandom adds up to k random blocks, each with its write entry, and up
// to m random entries to b's open chunk, as far as they fit, and returns
// what it added.
func addRandom(rng *rand.Rand, b *Builder, k, m int) built {
	var c built
	for ; k > 0 && b.Fits(1, 1); k-- {
		blk := make([]byte, b.layout.BlockSize)
		rng.Read(blk)
		slot := b.AddBlock(blk)
		e := Entry{Kind: KindWrite, TS: rng.Uint64(), Block: BlockID(rng.Uint32()), Slot: slot}
		b.AddEntry(e)
		c.blocks, c.slots, c.entries = append(c.blocks, blk), append(c.slots, slot), append(c.entries, e)
	}
	for ; m > 0 && b.Fits(0, 1); m-- {
		e := randomEntry(rng)
		b.AddEntry(e)
		c.entries = append(c.entries, e)
	}
	return c
}

// sealBuilt seals b's open chunk, which holds c, under seq.
func sealBuilt(b *Builder, c built, seq uint64) built {
	c.seq, c.end = seq, b.Top()
	b.Seal(seq)
	c.start = b.Top()
	return c
}

// randomImage seals k random blocks and m random entries under seq as
// chunk 1 of a segment and returns the segment.
func randomImage(rng *rand.Rand, l Layout, seq uint64, k, m int) ([]byte, built) {
	b := NewBuilder(l)
	c := sealBuilt(b, addRandom(rng, b, k, m), seq)
	return bytes.Clone(b.buf), c
}

// randomStack seals n random small chunks under consecutive sequence
// numbers from seq — fewer if the segment fills — and returns the segment
// and the chunks.
func randomStack(rng *rand.Rand, l Layout, seq uint64, n int) ([]byte, []built) {
	b := NewBuilder(l)
	var chunks []built
	for ; n > 0 && b.Fits(0, 1); n-- {
		c := addRandom(rng, b, rng.Intn(3), rng.Intn(30))
		if len(c.entries) == 0 {
			c = addRandom(rng, b, 0, 1)
		}
		chunks = append(chunks, sealBuilt(b, c, seq))
		seq++
	}
	return bytes.Clone(b.buf), chunks
}

// legacySegment lays k random blocks and m random entries out the way the
// older formats put them on the device, which nothing writes any more:
// data blocks (slot numbers count them), entry region, trailer — ending at
// the segment's last sector, or front-packed: the data from the segment's
// first byte, a gap, the summary at the end.
func legacySegment(rng *rand.Rand, l Layout, front bool, seq uint64, k, m int) ([]byte, built) {
	c := built{seq: seq, end: l.SegBytes}
	for i := 0; i < k; i++ {
		blk := make([]byte, l.BlockSize)
		rng.Read(blk)
		e := Entry{Kind: KindWrite, TS: rng.Uint64(), Block: BlockID(rng.Uint32()), Slot: uint32(i)}
		c.blocks, c.slots, c.entries = append(c.blocks, blk), append(c.slots, uint32(i)), append(c.entries, e)
	}
	var enc []byte
	for _, e := range c.entries {
		enc = AppendEntry(enc, e)
	}
	for ; m > 0 && k*l.BlockSize+entryRegionBytes(len(enc)+MaxEntrySize)+SectorSize <= l.SegBytes; m-- {
		e := randomEntry(rng)
		c.entries, enc = append(c.entries, e), AppendEntry(enc, e)
	}
	segment := make([]byte, l.SegBytes)
	region := segment[l.SegBytes-SectorSize-entryRegionBytes(len(enc)) : l.SegBytes-SectorSize]
	copy(region, enc)
	c.start = l.SegBytes - SectorSize - len(region) - k*l.BlockSize
	magic, data := uint32(trailerMagicTail), segment[c.start:]
	if front {
		magic, data, c.start = trailerMagicFront, segment, 0
	}
	for i, blk := range c.blocks {
		copy(data[i*l.BlockSize:], blk)
	}
	sec := segment[l.SegBytes-SectorSize:]
	binary.LittleEndian.PutUint32(sec[0:], magic)
	binary.LittleEndian.PutUint64(sec[4:], seq)
	binary.LittleEndian.PutUint32(sec[12:], uint32(k))
	binary.LittleEndian.PutUint32(sec[16:], uint32(len(c.entries)))
	binary.LittleEndian.PutUint32(sec[20:], uint32(len(enc)))
	binary.LittleEndian.PutUint32(sec[24:], crc32.Checksum(region, crcTable))
	binary.LittleEndian.PutUint32(sec[28:], crc32.Checksum(sec[:28], crcTable))
	return segment, c
}

// holds reports whether chunk ch of segment, as Walk found it, is c: its
// sequence number, its extent, its entries, and each block at its slot
// inside the chunk's data area.
func holds(l Layout, segment []byte, ch Chunk, c built) error {
	if ch.Seq != c.seq || ch.Start != c.start || ch.End != c.end {
		return errors.New("seq or extent differ")
	}
	got, err := DecodeEntriesFromSegment(segment[:ch.End], ch.Trailer)
	if err != nil {
		return err
	}
	if !slices.Equal(got, c.entries) {
		return errors.New("entries differ")
	}
	if int(ch.DataBlocks) != len(c.blocks) {
		return errors.New("block count differs")
	}
	for i, blk := range c.blocks {
		off := l.SlotOff(c.slots[i], ch.DataOff)
		if off < ch.DataOff || off+l.BlockSize > ch.DataOff+len(c.blocks)*l.BlockSize {
			return errors.New("a slot lies outside the data area")
		}
		if !bytes.Equal(segment[off:off+l.BlockSize], blk) {
			return errors.New("a block differs")
		}
	}
	return nil
}

// TestOlderFormatsStillRead: a trailer under either older magic is a
// segment of one chunk whose slots count blocks from DataOff — 0 for the
// front-packed layout, the start of the image for the tail-packed one.
func TestOlderFormatsStillRead(t *testing.T) {
	l := testLayout()
	rng := rand.New(rand.NewSource(7))
	for _, front := range []bool{false, true} {
		segment, c := legacySegment(rng, l, front, 31, 3, 10)
		tr, err := DecodeTrailer(segment)
		if err != nil {
			t.Fatal(err)
		}
		if want := map[bool]Format{false: TailPacked, true: FrontPacked}[front]; tr.Format != want || tr.Seq != 31 || tr.DataBlocks != 3 {
			t.Fatalf("trailer: %+v", tr)
		}
		if off, err := tr.DataOff(l); err != nil || off != c.start {
			t.Fatalf("front %v: DataOff = %d, %v; want %d", front, off, err, c.start)
		}
		chunks, err := Walk(l, segment)
		if err != nil || len(chunks) != 1 {
			t.Fatalf("front %v: Walk: %d chunks, %v", front, len(chunks), err)
		}
		if err := holds(l, segment, chunks[0], c); err != nil {
			t.Fatalf("front %v: %v", front, err)
		}
	}
}

// TestFrontPackedSegmentStillReads: a trailer under the oldest magic
// means data at offset 0; everything else about the segment decodes as
// before.
func TestFrontPackedSegmentStillReads(t *testing.T) {
	l := testLayout()
	rng := rand.New(rand.NewSource(7))
	segment, c := legacySegment(rng, l, true, 31, 3, 10)
	tr, err := DecodeTrailer(segment)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(segment[:l.BlockSize], c.blocks[0]) {
		t.Fatal("data is not at the segment's start")
	}
	got, err := DecodeEntriesFromSegment(segment, tr)
	if err != nil || !slices.Equal(got, c.entries) {
		t.Fatalf("entries: %v, %v", got, err)
	}
}

// TestTrailerExtentMustFit: a header that checksums but describes a chunk
// the segment cannot hold is a bad segment, in every format, and the
// largest chunks that do fit are accepted. A chunk header must also give
// the length its data blocks have.
func TestTrailerExtentMustFit(t *testing.T) {
	l := testLayout()
	per := uint32(l.BlocksPerSeg())
	for _, f := range []Format{Chunked, TailPacked, FrontPacked} {
		fill := func(tr Trailer) Trailer {
			tr.Format = f
			if f == Chunked {
				tr.dataBytes = tr.DataBlocks * uint32(l.BlockSize)
			}
			return tr
		}
		bad := []Trailer{
			{DataBlocks: per + 1},
			{DataBlocks: per, EntryBytes: uint32(l.SegBytes)},
			{DataBlocks: 1, EntryBytes: uint32(l.SegBytes - l.BlockSize - SectorSize + 1)},
			{EntryBytes: ^uint32(0)},
			{DataBlocks: ^uint32(0), EntryBytes: ^uint32(0)},
		}
		for _, tr := range bad {
			tr = fill(tr)
			if off, err := tr.DataOff(l); !errors.Is(err, ErrBadSegment) {
				t.Errorf("%+v accepted: DataOff = %d, %v", tr, off, err)
			}
		}
		good := []Trailer{
			{},
			{DataBlocks: per, EntryBytes: uint32(l.SegBytes - int(per)*l.BlockSize - SectorSize)},
			{EntryBytes: uint32(l.SegBytes - SectorSize)},
		}
		for _, tr := range good {
			tr = fill(tr)
			start, off, err := tr.extent(l, l.SegBytes)
			if err != nil {
				t.Errorf("%+v rejected: %v", tr, err)
			}
			want := l.SegBytes - int(tr.ImageBytes(l))
			switch f {
			case Chunked:
				if start != want || off != l.SegBytes-SectorSize-int(tr.dataBytes) {
					t.Errorf("%+v: chunk at %d, data at %d", tr, start, off)
				}
			case TailPacked:
				if start != want || off != want {
					t.Errorf("%+v: image at %d, data at %d", tr, start, off)
				}
			default:
				if start != 0 || off != 0 {
					t.Errorf("%+v: image at %d, data at %d", tr, start, off)
				}
			}
		}
	}
	// Below another chunk there is less room, and an older format has no
	// place at all.
	tr := Trailer{DataBlocks: 1, dataBytes: uint32(l.BlockSize)}
	if _, _, err := tr.extent(l, l.BlockSize+SectorSize); err != nil {
		t.Errorf("a one-block chunk does not fit the %d bytes it takes: %v", l.BlockSize+SectorSize, err)
	}
	if _, _, err := tr.extent(l, l.BlockSize); !errors.Is(err, ErrBadSegment) {
		t.Errorf("a one-block chunk fits %d bytes: %v", l.BlockSize, err)
	}
	tr.dataBytes--
	if _, _, err := tr.extent(l, l.SegBytes); !errors.Is(err, ErrBadSegment) {
		t.Errorf("a chunk header lying about its data area was accepted: %v", err)
	}
	if _, _, err := (Trailer{Format: TailPacked}).extent(l, l.SegBytes-SectorSize); !errors.Is(err, ErrBadSegment) {
		t.Errorf("a tail-packed image was accepted below a chunk: %v", err)
	}
}

// previousIncarnation returns a segment as an earlier life of it left it:
// never written, a stack of chunks, or one image in either older format.
// Its sequence numbers are below 100.
func previousIncarnation(rng *rand.Rand, l Layout) (segment []byte, chunks []built) {
	size := func() (k, m int) {
		switch rng.Intn(4) {
		case 0:
			return l.BlocksPerSeg(), 0 // full
		case 1:
			return 0, 1 + rng.Intn(400) // summary only
		default:
			return rng.Intn(4), rng.Intn(40)
		}
	}
	switch rng.Intn(4) {
	case 0:
		return make([]byte, l.SegBytes), nil
	case 1:
		return randomStack(rng, l, 10, 1+rng.Intn(6))
	default:
		k, m := size()
		segment, c := legacySegment(rng, l, rng.Intn(2) == 0, 10, k, m)
		return segment, []built{c}
	}
}

// TestTornRewriteDecodesOldOrNew is the header-last argument as a
// property, per chunk. A segment holds a previous incarnation — none, a
// stack of chunks, tail-packed or front-packed, of any size — and a new
// stack of one to six chunks is written over it, each chunk as one extent
// that ends where the one before begins, the write of chunk k torn at
// every sector prefix in turn. What is then on the medium walks to exactly:
// chunks 1…k−1, each with its own entries and data; chunk k iff its write
// is complete; and nothing below. While chunk 1 is torn, the walk finds
// no segment or chunks of the old incarnation, whose entries are either
// intact or fail their checksum (the new bytes reached them) — never a
// valid header over another incarnation's bytes, the state a write in two
// extents can leave. Last, a stale header planted directly below the
// stack — checksummed, the next sequence number, room for it — joins the
// chain only under the seed of the header above it.
func TestTornRewriteDecodesOldOrNew(t *testing.T) {
	l := testLayout()
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		medium, old := previousIncarnation(rng, l)
		fresh, chunks := randomStack(rng, l, 100, 1+rng.Intn(6))
		for k, c := range chunks {
			img := fresh[c.start:c.end]
			sectors := len(img) / SectorSize
			for keep := 0; keep <= sectors; keep++ {
				segment := bytes.Clone(medium)
				copy(segment[c.start:], img[:keep*SectorSize])
				got, err := Walk(l, segment)
				want := k
				if keep == sectors {
					want++
				}
				if k == 0 && keep < sectors {
					// Chunk 1 torn: the old incarnation, or nothing.
					if err != nil && (len(old) > 0 || !errors.Is(err, ErrBadSegment)) {
						t.Fatalf("seed %d keep %d/%d: no valid segment over a torn rewrite: %v", seed, keep, sectors, err)
					}
					if len(got) > len(old) {
						t.Fatalf("seed %d keep %d/%d: %d chunks walked, the old incarnation had %d", seed, keep, sectors, len(got), len(old))
					}
					for i, ch := range got {
						if ch.Seq != old[i].seq {
							t.Fatalf("seed %d keep %d/%d: chunk %d has seq %d, not the old incarnation's", seed, keep, sectors, i+1, ch.Seq)
						}
						err := holds(l, segment, ch, old[i])
						if keep == 0 && err != nil {
							t.Fatalf("seed %d: untouched old chunk %d: %v", seed, i+1, err)
						}
						if entries, derr := DecodeEntriesFromSegment(segment[:ch.End], ch.Trailer); derr == nil && !slices.Equal(entries, old[i].entries) {
							t.Fatalf("seed %d keep %d/%d: an old header vouches for entries that are not its own", seed, keep, sectors)
						}
					}
					continue
				}
				if err != nil || len(got) != want {
					t.Fatalf("seed %d chunk %d keep %d/%d: walked %d chunks (%v), want %d", seed, k+1, keep, sectors, len(got), err, want)
				}
				for i, ch := range got {
					if err := holds(l, segment, ch, chunks[i]); err != nil {
						t.Fatalf("seed %d chunk %d keep %d/%d: chunk %d: %v", seed, k+1, keep, sectors, i+1, err)
					}
				}
			}
			copy(medium[c.start:], img)
		}

		last := chunks[len(chunks)-1]
		if last.start < SectorSize {
			continue
		}
		got, err := Walk(l, medium)
		if err != nil || len(got) != len(chunks) {
			t.Fatalf("seed %d: walked %d chunks (%v), want %d", seed, len(got), err, len(chunks))
		}
		above := got[len(got)-1]
		stale := medium[last.start-SectorSize : last.start]
		for _, seed32 := range []uint32{0, above.crc ^ 1, got[0].crc + 1} {
			if seed32 == above.crc {
				continue
			}
			encodeHeader(stale, Trailer{Seq: last.seq + 1}, seed32)
			if got, err := Walk(l, medium); err != nil || len(got) != len(chunks) {
				t.Fatalf("seed %d: a header seeded %#x joined the chain below seed %#x: %d chunks, %v", seed, seed32, above.crc, len(got), err)
			}
		}
		encodeHeader(stale, Trailer{Seq: last.seq + 2}, above.crc)
		if got, err := Walk(l, medium); err != nil || len(got) != len(chunks) {
			t.Fatalf("seed %d: a header out of sequence joined the chain: %d chunks, %v", seed, len(got), err)
		}
		encodeHeader(stale, Trailer{Seq: last.seq + 1}, above.crc)
		if got, err := Walk(l, medium); err != nil || len(got) != len(chunks)+1 {
			t.Fatalf("seed %d: the planted header is not acceptable even under the right seed: %d chunks, %v", seed, len(got), err)
		}
	}
}

// FuzzTrailerDecode feeds arbitrary bytes, laid at the end of a segment,
// to Walk — seeded from real stacks of chunks, images of both older
// formats and corruptions of them. Walk may not panic, and the chunks it
// returns lie inside the segment, each directly below the one above and
// with the next sequence number, its data area inside it. Each input is
// judged as it is and again with the checksum of every header the walk
// reaches made good, so that a mutated count reaches the extent checks
// instead of dying at the CRC.
func FuzzTrailerDecode(f *testing.F) {
	l := fuzzLayout()
	rng := rand.New(rand.NewSource(1))
	for _, km := range [][2]int{{0, 0}, {2, 5}, {l.BlocksPerSeg(), 0}, {0, 400}} {
		stack, chunks := randomStack(rng, l, 9, 3)
		tail, _ := legacySegment(rng, l, false, 9, min(km[0], l.BlocksPerSeg()), km[1])
		front, _ := legacySegment(rng, l, true, 9, min(km[0], l.BlocksPerSeg()), km[1])
		one, _ := randomImage(rng, l, 9, km[0], km[1])
		for _, in := range [][]byte{stack[chunks[len(chunks)-1].start:], tail[l.SegBytes-SectorSize:], front[l.SegBytes-SectorSize:], one[l.SegBytes-SectorSize:]} {
			f.Add(in)
			for _, pos := range []int{0, 3, 4, 12, 15, 16, 20, 23, 24, 28, 32} {
				mut := bytes.Clone(in)
				mut[len(mut)-SectorSize+pos] ^= 0xff
				f.Add(mut)
			}
			f.Add(in[len(in)-40:])
		}
	}
	judge := func(t *testing.T, segment []byte) {
		chunks, err := Walk(l, segment)
		if err != nil {
			if len(chunks) != 0 {
				t.Fatalf("Walk returned %d chunks and %v", len(chunks), err)
			}
			return
		}
		top := l.SegBytes
		for i, c := range chunks {
			if c.End != top || c.Start < 0 || c.Start > c.End-SectorSize {
				t.Fatalf("chunk %d of %d at [%d, %d) below %d in a %d-byte segment", i+1, len(chunks), c.Start, c.End, top, l.SegBytes)
			}
			if i > 0 && (c.Seq != chunks[i-1].Seq+1 || c.Format != Chunked || chunks[i-1].Format != Chunked) {
				t.Fatalf("chunk %d (%v, seq %d) follows %v seq %d", i+1, c.Format, c.Seq, chunks[i-1].Format, chunks[i-1].Seq)
			}
			if end := int64(c.DataOff) + int64(c.DataBlocks)*int64(l.BlockSize); c.DataOff < c.Start || end > int64(c.End-SectorSize) {
				t.Fatalf("chunk %d at [%d, %d): data area [%d, %d)", i+1, c.Start, c.End, c.DataOff, end)
			}
			if c.Format != FrontPacked && c.Start+int(c.ImageBytes(l)) != c.End {
				t.Fatalf("chunk %d at [%d, %d) leaves a gap: it holds %d bytes", i+1, c.Start, c.End, c.ImageBytes(l))
			}
			top = c.Start
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		segment := make([]byte, l.SegBytes)
		if len(data) > len(segment) {
			data = data[len(data)-len(segment):]
		}
		copy(segment[len(segment)-len(data):], data)
		judge(t, segment)
		// Make good the checksum of each header a walk would reach.
		for top, seed := l.SegBytes, uint32(0); top >= SectorSize; {
			sec := segment[top-SectorSize : top]
			crcAt := trailerBytes - 4
			if binary.LittleEndian.Uint32(sec) == trailerMagicChunk {
				crcAt = chunkHeaderBytes - 4
			} else {
				seed = 0
			}
			binary.LittleEndian.PutUint32(sec[crcAt:], crc32.Update(seed, crcTable, sec[:crcAt]))
			tr, err := decodeHeader(sec, seed)
			if err != nil {
				break
			}
			start, _, err := tr.extent(l, top)
			if err != nil || tr.Format != Chunked {
				break
			}
			top, seed = start, tr.crc
		}
		judge(t, segment)
	})
}
