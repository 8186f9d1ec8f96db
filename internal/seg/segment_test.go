package seg

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func testLayout() Layout {
	return Layout{BlockSize: 1024, SegBytes: 8192, NumSegs: 16, MaxBlocks: 512, MaxLists: 128}
}

func TestLayoutValidate(t *testing.T) {
	good := testLayout()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	cases := []Layout{
		{BlockSize: 0, SegBytes: 8192, NumSegs: 1, MaxBlocks: 1, MaxLists: 1},
		{BlockSize: 1000, SegBytes: 8192, NumSegs: 1, MaxBlocks: 1, MaxLists: 1}, // not sector multiple
		{BlockSize: 1024, SegBytes: 1024, NumSegs: 1, MaxBlocks: 1, MaxLists: 1}, // seg too small
		{BlockSize: 1024, SegBytes: 8000, NumSegs: 1, MaxBlocks: 1, MaxLists: 1}, // not block multiple
		{BlockSize: 1024, SegBytes: 8192, NumSegs: 0, MaxBlocks: 1, MaxLists: 1}, // no segments
		{BlockSize: 1024, SegBytes: 8192, NumSegs: 1, MaxBlocks: 0, MaxLists: 1}, // no blocks
		{BlockSize: 1024, SegBytes: 8192, NumSegs: 1, MaxBlocks: 1, MaxLists: 0}, // no lists
	}
	for i, l := range cases {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: invalid layout accepted: %+v", i, l)
		}
	}
}

func TestLayoutOffsetsDisjoint(t *testing.T) {
	l := testLayout()
	if l.CkptOff(0) < int64(superBytes) {
		t.Error("checkpoint 0 overlaps superblock")
	}
	if l.CkptOff(1) < l.CkptOff(0)+l.CkptRegionBytes() {
		t.Error("checkpoint regions overlap")
	}
	if l.SegOff(0) < l.CkptOff(1)+l.CkptRegionBytes() {
		t.Error("segments overlap checkpoints")
	}
	for s := 1; s < l.NumSegs; s++ {
		if l.SegOff(s) != l.SegOff(s-1)+int64(l.SegBytes) {
			t.Fatalf("segment %d misplaced", s)
		}
	}
	if l.DiskBytes() != l.SegOff(l.NumSegs) {
		t.Error("DiskBytes does not cover the last segment")
	}
}

func TestSuperRoundTrip(t *testing.T) {
	l := testLayout()
	buf := EncodeSuper(l)
	got, err := DecodeSuper(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got != l {
		t.Fatalf("round trip: %+v != %+v", got, l)
	}
	// Corruption is detected.
	buf[5] ^= 0xff
	if _, err := DecodeSuper(buf); !errors.Is(err, ErrBadSuper) {
		t.Fatalf("corrupt superblock accepted: %v", err)
	}
	if _, err := DecodeSuper(make([]byte, 4)); !errors.Is(err, ErrBadSuper) {
		t.Fatal("short superblock accepted")
	}
}

func TestBuilderSealParseRoundTrip(t *testing.T) {
	l := testLayout()
	b := NewBuilder(l)
	if !b.Empty() {
		t.Fatal("fresh builder not empty")
	}
	data1 := bytes.Repeat([]byte{0x11}, l.BlockSize)
	data2 := bytes.Repeat([]byte{0x22}, l.BlockSize)
	s1 := b.AddBlock(data1)
	s2 := b.AddBlock(data2)
	entries := []Entry{
		{Kind: KindNewBlock, ARU: 1, TS: 10, Block: 5, List: 2},
		{Kind: KindWrite, TS: 11, Block: 5, Slot: s1},
		{Kind: KindWrite, TS: 12, Block: 6, Slot: s2},
		{Kind: KindCommit, ARU: 1, TS: 13},
	}
	for _, e := range entries {
		b.AddEntry(e)
	}
	img := b.Seal(42)
	// The chunk is what it holds: one sector of entries, two blocks, the
	// header sector.
	if want := 2*l.BlockSize + 2*SectorSize; len(img) != want {
		t.Fatalf("sealed chunk is %d bytes, want %d", len(img), want)
	}
	if b.Top() != l.SegBytes-len(img) || b.Chunks() != 1 || !b.Empty() {
		t.Fatalf("after the seal: top %d, %d chunks, empty %v", b.Top(), b.Chunks(), b.Empty())
	}
	tr, err := DecodeTrailer(img)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Seq != 42 || tr.DataBlocks != 2 || tr.EntryCount != 4 {
		t.Fatalf("trailer: %+v", tr)
	}
	if n := tr.ImageBytes(l); n != int64(len(img)) {
		t.Fatalf("trailer describes a %d-byte chunk, Seal returned %d", n, len(img))
	}
	got, err := DecodeEntriesFromSegment(img, tr)
	if err != nil {
		t.Fatal(err)
	}
	for i := range entries {
		if got[i] != entries[i] {
			t.Fatalf("entry %d: %+v != %+v", i, got[i], entries[i])
		}
	}
	// Slots are taken downward from the header and say where: the first
	// block lies directly below it, the second below the first.
	if s1&SlotSector == 0 || SlotOff(s1) != l.SegBytes-SectorSize-l.BlockSize || SlotOff(s2) != SlotOff(s1)-l.BlockSize {
		t.Fatalf("slots %#x, %#x", s1, s2)
	}
	if !bytes.Equal(img[len(img)-SectorSize-l.BlockSize:len(img)-SectorSize], data1) {
		t.Fatal("the first block is not directly below the header")
	}
	if !bytes.Equal(b.BlockData(s2), data2) || !bytes.Equal(b.BlockData(s1), data1) {
		t.Fatal("BlockData does not alias the slots of a sealed chunk")
	}

	// On the device chunk 1 ends at the segment's last sector: the header
	// and the entries are found from the full segment exactly as from the
	// chunk, and DataOff says where its data area starts.
	segment := placeImage(l, nil, img)
	if tr2, err := DecodeTrailer(segment); err != nil || tr2 != tr {
		t.Fatalf("trailer read from the segment: %+v, %v", tr2, err)
	}
	if got2, err := DecodeEntriesFromSegment(segment, tr); err != nil || !slices.Equal(got2, got) {
		t.Fatalf("entries read from the segment: %v, %v", got2, err)
	}
	off, err := tr.DataOff(l)
	if err != nil || off != SlotOff(s2) {
		t.Fatalf("DataOff = %d, %v; the lowest block is at %d", off, err, SlotOff(s2))
	}
	if !bytes.Equal(segment[SlotOff(s2):][:l.BlockSize], data2) {
		t.Fatal("the second block is not at its slot")
	}

	// A second chunk goes directly below the first, and both are found.
	s3 := b.AddBlock(data2)
	b.AddEntry(Entry{Kind: KindWrite, TS: 14, Block: 7, Slot: s3})
	img2 := b.Seal(43)
	if SlotOff(s3) != l.SegBytes-len(img)-SectorSize-l.BlockSize || b.Top() != l.SegBytes-len(img)-len(img2) {
		t.Fatalf("second chunk: slot at %d, top %d", SlotOff(s3), b.Top())
	}
	copy(segment[b.Top():], img2)
	chunks, err := Walk(l, segment)
	if err != nil || len(chunks) != 2 || chunks[0].Trailer != tr || chunks[1].Seq != 43 ||
		chunks[1].End != chunks[0].Start || chunks[1].Start != b.Top() || chunks[1].DataOff != SlotOff(s3) {
		t.Fatalf("Walk: %+v, %v", chunks, err)
	}
	if got, err := DecodeEntriesFromSegment(segment[:chunks[1].End], chunks[1].Trailer); err != nil || len(got) != 1 || got[0].Slot != s3 {
		t.Fatalf("entries of the second chunk: %v, %v", got, err)
	}
}

// placeImage returns a copy of segment prev (nil = never written) with
// img laid where a seal puts it: ending at the segment's last sector.
func placeImage(l Layout, prev, img []byte) []byte {
	segment := make([]byte, l.SegBytes)
	copy(segment, prev)
	copy(segment[l.SegBytes-len(img):], img)
	return segment
}

func TestTornSegmentInvalid(t *testing.T) {
	l := testLayout()
	b := NewBuilder(l)
	b.AddEntry(Entry{Kind: KindCommit, ARU: 1, TS: 1})
	img := append([]byte(nil), b.Seal(7)...)

	// A torn write that loses the trailing sector must invalidate the
	// whole segment.
	torn := append([]byte(nil), img...)
	for i := len(torn) - SectorSize; i < len(torn); i++ {
		torn[i] = 0
	}
	if _, err := DecodeTrailer(torn); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("torn trailer accepted: %v", err)
	}

	// A corrupted entry region must fail the checksum even when the
	// trailer survives.
	tr, err := DecodeTrailer(img)
	if err != nil {
		t.Fatal(err)
	}
	img[len(img)-tr.SummaryBytes()] ^= 0xff
	if _, err := DecodeEntriesFromSegment(img, tr); !errors.Is(err, ErrBadSegment) {
		t.Fatalf("corrupt entry region accepted: %v", err)
	}
}

func TestBuilderCapacity(t *testing.T) {
	l := testLayout() // 8 KB segment, 1 KB blocks
	b := NewBuilder(l)
	blocks := 0
	for b.Fits(1, 1) {
		b.AddBlock(make([]byte, l.BlockSize))
		b.AddEntry(Entry{Kind: KindWrite, TS: uint64(blocks), Block: BlockID(blocks + 1), Slot: uint32(blocks)})
		blocks++
	}
	if blocks < 5 || blocks > 7 {
		t.Fatalf("8 KB segment held %d 1 KB blocks; expected 5-7", blocks)
	}
	// Entry-only capacity: a segment can be all summary (the
	// ARU-latency experiment's shape).
	b2 := NewBuilder(l)
	count := 0
	for b2.Fits(0, 1) {
		b2.AddEntry(Entry{Kind: KindCommit, ARU: ARUID(count), TS: uint64(count)})
		count++
	}
	// 8 KB - trailer sector leaves ~7.5 KB of 17-byte commits.
	if count < 300 {
		t.Fatalf("only %d commit records fit; expected hundreds", count)
	}
	img := b2.Seal(1)
	tr, err := DecodeTrailer(img)
	if err != nil {
		t.Fatal(err)
	}
	if int(tr.EntryCount) != count || tr.DataBlocks != 0 {
		t.Fatalf("trailer %+v, want %d entries", tr, count)
	}
	if _, err := DecodeEntriesFromSegment(img, tr); err != nil {
		t.Fatal(err)
	}
}

func TestBuilderReset(t *testing.T) {
	l := testLayout()
	b := NewBuilder(l)
	b.AddBlock(bytes.Repeat([]byte{0xff}, l.BlockSize))
	b.AddEntry(Entry{Kind: KindCommit, ARU: 1, TS: 1})
	b.Reset()
	if !b.Empty() || b.DataBlocks() != 0 || b.EntryCount() != 0 {
		t.Fatal("reset builder not empty")
	}
	// Nothing of the dropped contents reaches the next image: it is the
	// trailer sector of an empty segment and no more.
	img := b.Seal(9)
	tr, err := DecodeTrailer(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != SectorSize || tr.DataBlocks != 0 || tr.EntryCount != 0 {
		t.Fatalf("stale contents survived Reset: %d-byte image, trailer %+v", len(img), tr)
	}
}

// TestBuilderReuseEqualsFresh: Reset does not clear the builder's
// buffer; a chunk has no gap, so Seal owes it only the zeros of its own
// sector padding. Over seeded random histories of one reused builder —
// segments of one full chunk, of a partial one, of summary only (whose
// entry region lies where data was before), of several chunks stacked,
// contents dropped by a Reset without a Seal, slots reserved and
// scribbled on but never committed — the bytes of the segment from the
// last chunk up must equal, byte for byte, what a fresh builder produces
// from the same blocks, entries and seals.
func TestBuilderReuseEqualsFresh(t *testing.T) {
	l := testLayout()
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reused := NewBuilder(l)
		var sealed []built // the chunks of the current segment
		check := func(step int, what string, c built) {
			sealed = append(sealed, sealBuilt(reused, c, rng.Uint64()))
			fresh := NewBuilder(l)
			for _, c := range sealed {
				for i, data := range c.blocks {
					if slot := fresh.AddBlock(data); slot != c.slots[i] {
						t.Fatalf("seed %d step %d (%s): a fresh builder puts block %d at slot %#x, the reused one at %#x", seed, step, what, i, slot, c.slots[i])
					}
				}
				for _, e := range c.entries {
					fresh.AddEntry(e)
				}
				fresh.Seal(c.seq)
			}
			if fresh.Top() != reused.Top() {
				t.Fatalf("seed %d step %d (%s, %d chunks): chunks start at %d, a fresh builder's at %d",
					seed, step, what, len(sealed), reused.Top(), fresh.Top())
			}
			got, want := reused.buf[reused.Top():], fresh.buf[fresh.Top():]
			if !bytes.Equal(got, want) {
				i := 0
				for got[i] == want[i] {
					i++
				}
				t.Fatalf("seed %d step %d (%s, %d chunks): segment differs from a fresh builder's at byte %d: %#x, want %#x",
					seed, step, what, len(sealed), reused.Top()+i, got[i], want[i])
			}
		}
		for step := 0; step < 40; step++ {
			reused.Reset()
			sealed = sealed[:0]
			switch rng.Intn(6) {
			case 0:
				check(step, "full", addRandom(rng, reused, l.BlocksPerSeg(), 0))
			case 1:
				check(step, "partial", addRandom(rng, reused, 1+rng.Intn(3), rng.Intn(4)))
			case 2:
				check(step, "summary only", addRandom(rng, reused, 0, 1+rng.Intn(400)))
			case 3:
				for n := 1 + rng.Intn(5); n > 0 && reused.Fits(0, 1); n-- {
					check(step, "stacked", addRandom(rng, reused, rng.Intn(3), 1+rng.Intn(40)))
				}
			case 4:
				addRandom(rng, reused, rng.Intn(l.BlocksPerSeg()), rng.Intn(100)) // dropped by the next Reset, never sealed
			case 5:
				check(step, "before the abandoned reservation", addRandom(rng, reused, rng.Intn(3), 1))
				c := addRandom(rng, reused, rng.Intn(2), 0)
				if reused.Fits(1, 0) {
					rng.Read(reused.ReserveBlock()) // a fill that failed: never committed
				}
				check(step, "abandoned reservation", c)
			}
		}
	}
}

// TestQuickSegmentRoundTrip: random mixes of blocks and entries always
// round-trip through seal/decode.
func TestQuickSegmentRoundTrip(t *testing.T) {
	l := testLayout()
	kinds := allKinds()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBuilder(l)
		var entries []Entry
		nblocks := 0
		for i := 0; i < 200; i++ {
			if rng.Intn(3) == 0 && b.Fits(1, 0) {
				data := make([]byte, l.BlockSize)
				rng.Read(data)
				b.AddBlock(data)
				nblocks++
				continue
			}
			if !b.Fits(0, 1) {
				break
			}
			e := canonical(Entry{
				Kind:  kinds[rng.Intn(len(kinds))],
				ARU:   ARUID(rng.Uint32()),
				TS:    uint64(i),
				Block: BlockID(rng.Uint32()),
				List:  ListID(rng.Uint32()),
				Pred:  BlockID(rng.Uint32()),
				Slot:  rng.Uint32(),
			})
			entries = append(entries, e)
			b.AddEntry(e)
		}
		img := b.Seal(uint64(seed))
		tr, err := DecodeTrailer(img)
		if err != nil || int(tr.DataBlocks) != nblocks {
			return false
		}
		got, err := DecodeEntriesFromSegment(img, tr)
		if err != nil || len(got) != len(entries) {
			return false
		}
		for i := range got {
			if got[i] != entries[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointRoundTrip: a base record encodes into a sector-rounded
// prefix of its region and decodes to itself; a corrupt header or payload
// is a bad checkpoint.
func TestCheckpointRoundTrip(t *testing.T) {
	l := testLayout()
	rec := CkptRec{
		Base: true, CkptTS: 9, FlushedSeq: 4, NextTS: 1000, NextBlock: 55, NextList: 12, NextARU: 7,
		Blocks: []BlockRec{
			{ID: 3, Seg: 1, Slot: SlotSector | 2, Succ: 4, List: 2, TS: 99, HasData: true},
			{ID: 4, List: 2, TS: 100},
		},
		Lists:     []ListRec{{ID: 2, First: 3, Last: 4, TS: 100}},
		DelBlocks: []BlockID{}, DelLists: []ListID{}, // as decoded
	}
	buf, err := EncodeCkptRec(l, rec)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(buf)) > l.CkptRegionBytes() || len(buf)%SectorSize != 0 {
		t.Fatalf("encoded record is %d bytes, the region %d", len(buf), l.CkptRegionBytes())
	}
	got, n, err := DecodeCkptRec(buf)
	if err != nil || n != int64(len(buf)) || !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip: %+v (%d bytes), %v; want %+v", got, n, err, rec)
	}
	for _, at := range []int{8, ckptRecHeaderBytes} { // header, payload
		bad := bytes.Clone(buf)
		bad[at] ^= 1
		if _, _, err := DecodeCkptRec(bad); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("corruption at byte %d accepted: %v", at, err)
		}
	}
}

// TestCheckpointBounds: a record is refused exactly when it does not fit a
// checkpoint region, as CkptFits says. A base of the layout's own MaxBlocks
// and MaxLists does not fit: the region is sized by geometry, not by the
// record format, so the engine bounds its tables by CkptFits.
func TestCheckpointBounds(t *testing.T) {
	l := testLayout()
	full := CkptRec{Base: true, Blocks: make([]BlockRec, l.MaxBlocks), Lists: make([]ListRec, l.MaxLists)}
	if _, err := EncodeCkptRec(l, full); err == nil || l.CkptFits(l.MaxBlocks, l.MaxLists, 0) {
		t.Fatalf("a base of %d bytes was accepted into a %d-byte region: %v", full.WireBytes(), l.CkptRegionBytes(), err)
	}
	most := func(fits func(n int) bool) (n int) {
		for fits(n + 1) {
			n++
		}
		return n
	}
	nb := most(func(n int) bool { return l.CkptFits(n, l.MaxLists, 0) })
	nd := most(func(n int) bool { return l.CkptFits(0, 0, n) })
	for _, tc := range []struct {
		name string
		rec  CkptRec
		grow func(r *CkptRec)
	}{
		{"base", CkptRec{Base: true, Blocks: make([]BlockRec, nb), Lists: make([]ListRec, l.MaxLists)},
			func(r *CkptRec) { r.Blocks = append(r.Blocks, BlockRec{}) }},
		{"delta", CkptRec{DelBlocks: make([]BlockID, nd/2), DelLists: make([]ListID, nd-nd/2)},
			func(r *CkptRec) { r.DelLists = append(r.DelLists, 1) }},
	} {
		buf, err := EncodeCkptRec(l, tc.rec)
		if err != nil || int64(len(buf)) > l.CkptRegionBytes() {
			t.Fatalf("%s: the largest record that fits: %d bytes of a %d-byte region, %v", tc.name, len(buf), l.CkptRegionBytes(), err)
		}
		tc.grow(&tc.rec)
		if _, err := EncodeCkptRec(l, tc.rec); err == nil {
			t.Fatalf("%s: a record of %d bytes was accepted into a %d-byte region", tc.name, tc.rec.WireBytes(), l.CkptRegionBytes())
		}
	}
}
