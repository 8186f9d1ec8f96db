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

// built is one chunk a test put into a segment: what it holds and where.
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

// retiredTrailer writes into sec, one sector, a trailer of a retired
// one-image layout under magic, checksummed as that layout did: what the
// last sector of a segment such an engine sealed starts with.
func retiredTrailer(sec []byte, magic uint32, seq uint64) {
	clear(sec)
	binary.LittleEndian.PutUint32(sec[0:], magic)
	binary.LittleEndian.PutUint64(sec[4:], seq)
	binary.LittleEndian.PutUint32(sec[28:], crc32.Checksum(sec[:28], crcTable))
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
		off := SlotOff(c.slots[i])
		if off < ch.DataOff || off+l.BlockSize > ch.DataOff+len(c.blocks)*l.BlockSize {
			return errors.New("a slot lies outside the data area")
		}
		if !bytes.Equal(segment[off:off+l.BlockSize], blk) {
			return errors.New("a block differs")
		}
	}
	return nil
}

// TestTrailerExtentMustFit: a header that checksums but describes a chunk
// the segment cannot hold is a bad segment, and the largest chunks that do
// fit are accepted. A chunk header must also give the length its data
// blocks have.
func TestTrailerExtentMustFit(t *testing.T) {
	l := testLayout()
	per := uint32(l.BlocksPerSeg())
	fill := func(tr Trailer) Trailer {
		tr.dataBytes = tr.DataBlocks * uint32(l.BlockSize)
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
		if start != l.SegBytes-int(tr.ImageBytes(l)) || off != l.SegBytes-SectorSize-int(tr.dataBytes) {
			t.Errorf("%+v: chunk at %d, data at %d", tr, start, off)
		}
	}
	// Below another chunk there is less room.
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
}

// previousIncarnation returns a segment as an earlier life of it left it:
// never written, or a stack of chunks — small ones, one full of data, or
// one of summary only. Its sequence numbers are below 100.
func previousIncarnation(rng *rand.Rand, l Layout) (segment []byte, chunks []built) {
	var k, m int
	switch rng.Intn(6) {
	case 0:
		return make([]byte, l.SegBytes), nil
	case 1, 2:
		return randomStack(rng, l, 10, 1+rng.Intn(6))
	case 3:
		k = l.BlocksPerSeg()
	case 4:
		m = 1 + rng.Intn(400)
	default:
		k, m = rng.Intn(4), rng.Intn(40)
	}
	segment, c := randomImage(rng, l, 10, k, m)
	return segment, []built{c}
}

// TestTornRewriteDecodesOldOrNew is the header-last argument as a
// property, per chunk. A segment holds a previous incarnation — none, or
// a stack of chunks of any size — and a new
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
// chain only under the seed of the header above it, and a retired trailer
// there ends the walk as any other bytes do; over the last sector it is
// ErrRetiredFormat.
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
		magic := uint32(retiredFrontMagic + rng.Intn(2))
		retiredTrailer(stale, magic, last.seq+1)
		if got, err := Walk(l, medium); err != nil || len(got) != len(chunks) {
			t.Fatalf("seed %d: a retired trailer below the stack: %d chunks, %v", seed, len(got), err)
		}
		retiredTrailer(medium[l.SegBytes-SectorSize:], magic, 100)
		if got, err := Walk(l, medium); !errors.Is(err, ErrRetiredFormat) || len(got) != 0 {
			t.Fatalf("seed %d: a retired trailer over the last sector: %d chunks, %v", seed, len(got), err)
		}
	}
}

// FuzzTrailerDecode feeds arbitrary bytes, laid at the end of a segment,
// to Walk — seeded from real stacks of chunks, retired trailers over the
// last sector and directly below a stack, and corruptions of them. Walk
// may not panic; it is ErrRetiredFormat exactly when the last sector holds
// a retired magic; and the chunks it returns lie inside the segment, each
// directly below the one above and with the next sequence number, its
// data area inside it. Each input is judged as it is and again with the
// checksum of every header the walk reaches made good, so that a mutated
// count reaches the extent checks instead of dying at the CRC.
func FuzzTrailerDecode(f *testing.F) {
	l := fuzzLayout()
	rng := rand.New(rand.NewSource(1))
	for i, km := range [][2]int{{0, 0}, {2, 5}, {l.BlocksPerSeg(), 0}, {0, 400}} {
		stack, chunks := randomStack(rng, l, 9, 3)
		// Chunk 1 with a retired trailer where chunk 2's header was.
		below := bytes.Clone(stack[chunks[0].start-SectorSize:])
		retiredTrailer(below[:SectorSize], uint32(retiredFrontMagic+i%2), 10)
		retired := make([]byte, SectorSize)
		retiredTrailer(retired, uint32(retiredTailMagic-i%2), 9)
		one, _ := randomImage(rng, l, 9, km[0], km[1])
		for _, in := range [][]byte{stack[chunks[len(chunks)-1].start:], below, retired, one[l.SegBytes-SectorSize:]} {
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
		magic := binary.LittleEndian.Uint32(segment[l.SegBytes-SectorSize:])
		if retired := magic == retiredFrontMagic || magic == retiredTailMagic; errors.Is(err, ErrRetiredFormat) != retired {
			t.Fatalf("last sector under magic %#x walks to %v", magic, err)
		}
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
			if i > 0 && c.Seq != chunks[i-1].Seq+1 {
				t.Fatalf("chunk %d (seq %d) follows seq %d", i+1, c.Seq, chunks[i-1].Seq)
			}
			if end := int64(c.DataOff) + int64(c.DataBlocks)*int64(l.BlockSize); c.DataOff < c.Start || end > int64(c.End-SectorSize) {
				t.Fatalf("chunk %d at [%d, %d): data area [%d, %d)", i+1, c.Start, c.End, c.DataOff, end)
			}
			if c.Start+int(c.ImageBytes(l)) != c.End {
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
			if binary.LittleEndian.Uint32(sec) != trailerMagicChunk {
				break
			}
			binary.LittleEndian.PutUint32(sec[headerBytes-4:], crc32.Update(seed, crcTable, sec[:headerBytes-4]))
			tr, _ := decodeHeader(sec, seed)
			start, _, err := tr.extent(l, top)
			if err != nil {
				break
			}
			top, seed = start, tr.crc
		}
		judge(t, segment)
	})
}
