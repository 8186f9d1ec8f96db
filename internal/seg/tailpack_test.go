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

// randomImage seals k random blocks and m random entries under seq.
func randomImage(rng *rand.Rand, l Layout, seq uint64, k, m int) (img []byte, data []byte, entries []Entry) {
	kinds := allKinds()
	b := NewBuilder(l)
	for ; k > 0 && b.Fits(1, 1); k-- {
		blk := make([]byte, l.BlockSize)
		rng.Read(blk)
		e := Entry{Kind: KindWrite, TS: rng.Uint64(), Block: BlockID(rng.Uint32()), Slot: b.AddBlock(blk)}
		b.AddEntry(e)
		data, entries = append(data, blk...), append(entries, e)
	}
	for ; m > 0 && b.Fits(0, 1); m-- {
		e := canonical(Entry{
			Kind:  kinds[rng.Intn(len(kinds))],
			ARU:   ARUID(rng.Uint32()),
			TS:    rng.Uint64(),
			Block: BlockID(rng.Uint32()),
			List:  ListID(rng.Uint32()),
			Pred:  BlockID(rng.Uint32()),
			Slot:  rng.Uint32(),
		})
		b.AddEntry(e)
		entries = append(entries, e)
	}
	return b.Seal(seq), data, entries
}

// frontPacked lays a sealed image out the way the older layout put it on
// the device: data from the segment's first byte, a gap, the summary at
// the end under the old trailer magic.
func frontPacked(l Layout, img []byte) []byte {
	tr, err := DecodeTrailer(img)
	if err != nil {
		panic(err)
	}
	data := int(tr.DataBlocks) * l.BlockSize
	segment := make([]byte, l.SegBytes)
	copy(segment, img[:data])
	copy(segment[l.SegBytes-tr.SummaryBytes():], img[data:])
	sec := segment[l.SegBytes-SectorSize:]
	binary.LittleEndian.PutUint32(sec[0:], trailerMagicFront)
	binary.LittleEndian.PutUint32(sec[28:], crc32.Checksum(sec[:28], crcTable))
	return segment
}

// TestFrontPackedSegmentStillReads: a trailer under the old magic means
// data at offset 0; everything else about the segment decodes as before.
func TestFrontPackedSegmentStillReads(t *testing.T) {
	l := testLayout()
	rng := rand.New(rand.NewSource(7))
	img, data, entries := randomImage(rng, l, 31, 3, 10)
	segment := frontPacked(l, img)
	tr, err := DecodeTrailer(segment)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.FrontPacked || tr.Seq != 31 || tr.DataBlocks != 3 {
		t.Fatalf("trailer: %+v", tr)
	}
	if off, err := tr.DataOff(l); err != nil || off != 0 {
		t.Fatalf("DataOff = %d, %v; want 0", off, err)
	}
	if !bytes.Equal(segment[:len(data)], data) {
		t.Fatal("data is not at the segment's start")
	}
	got, err := DecodeEntriesFromSegment(segment, tr)
	if err != nil || !slices.Equal(got, entries) {
		t.Fatalf("entries: %v, %v", got, err)
	}
}

// TestTrailerExtentMustFit: a trailer that checksums but describes an
// image no segment of the layout can hold is a bad segment, in either
// layout, and the largest images that do fit are accepted.
func TestTrailerExtentMustFit(t *testing.T) {
	l := testLayout()
	per := uint32(l.BlocksPerSeg())
	for _, front := range []bool{false, true} {
		bad := []Trailer{
			{DataBlocks: per + 1},
			{DataBlocks: per, EntryBytes: uint32(l.SegBytes)},
			{DataBlocks: 1, EntryBytes: uint32(l.SegBytes - l.BlockSize - SectorSize + 1)},
			{EntryBytes: ^uint32(0)},
			{DataBlocks: ^uint32(0), EntryBytes: ^uint32(0)},
		}
		for _, tr := range bad {
			tr.FrontPacked = front
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
			tr.FrontPacked = front
			off, err := tr.DataOff(l)
			if err != nil {
				t.Errorf("%+v rejected: %v", tr, err)
			}
			if want := l.SegBytes - int(tr.ImageBytes(l)); !front && off != want || front && off != 0 {
				t.Errorf("%+v: DataOff = %d", tr, off)
			}
		}
	}
}

// TestTornRewriteDecodesOldOrNew is the trailer-last argument as a
// property. A segment holds a previous incarnation — none, tail-packed or
// front-packed, of any size — and a new image is written over it as one
// extent ending at the last sector, torn at every sector prefix in turn.
// What is then on the medium decodes to exactly one of: no valid segment;
// the old trailer, its entries either intact or failing their checksum
// (the new image's data reached them); the new trailer with the new
// entries and the new data — and the last iff the write is complete. A
// valid trailer over another incarnation's bytes, the state a write in
// two extents can leave, is never among them.
func TestTornRewriteDecodesOldOrNew(t *testing.T) {
	l := testLayout()
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
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
		var prev []byte
		var oldEntries []Entry
		const oldSeq, newSeq = 10, 20
		if kind := rng.Intn(3); kind > 0 {
			k, m := size()
			img, _, entries := randomImage(rng, l, oldSeq, k, m)
			oldEntries = entries
			if kind == 1 {
				prev = placeImage(l, nil, img)
			} else {
				prev = frontPacked(l, img)
			}
		}
		k, m := size()
		img, data, entries := randomImage(rng, l, newSeq, k, m)
		sectors := len(img) / SectorSize
		for keep := 0; keep <= sectors; keep++ {
			segment := placeImage(l, prev, nil)
			copy(segment[l.SegBytes-len(img):], img[:keep*SectorSize])

			tr, err := DecodeTrailer(segment)
			switch {
			case err != nil:
				if prev != nil || keep == sectors {
					t.Fatalf("seed %d keep %d/%d: no valid segment: %v", seed, keep, sectors, err)
				}
			case tr.Seq == oldSeq:
				if prev == nil || keep == sectors {
					t.Fatalf("seed %d keep %d/%d: the old trailer survived a complete write", seed, keep, sectors)
				}
				got, err := DecodeEntriesFromSegment(segment, tr)
				if err != nil && !errors.Is(err, ErrBadSegment) {
					t.Fatalf("seed %d keep %d/%d: old entries: %v", seed, keep, sectors, err)
				}
				if err == nil && !slices.Equal(got, oldEntries) {
					t.Fatalf("seed %d keep %d/%d: the old trailer vouches for entries that are not its own", seed, keep, sectors)
				}
				if keep == 0 && err != nil {
					t.Fatalf("seed %d: untouched old segment does not decode: %v", seed, err)
				}
			case tr.Seq == newSeq:
				if keep != sectors {
					t.Fatalf("seed %d keep %d/%d: the new trailer is valid over a torn write", seed, keep, sectors)
				}
				got, err := DecodeEntriesFromSegment(segment, tr)
				if err != nil || !slices.Equal(got, entries) {
					t.Fatalf("seed %d: new entries: %v", seed, err)
				}
				off, err := tr.DataOff(l)
				if err != nil || !bytes.Equal(segment[off:off+len(data)], data) {
					t.Fatalf("seed %d: new data is not at DataOff %d (%v)", seed, off, err)
				}
			default:
				t.Fatalf("seed %d keep %d/%d: trailer of neither incarnation: %+v", seed, keep, sectors, tr)
			}
		}
	}
}

// FuzzTrailerDecode feeds arbitrary sectors — seeded from real trailers
// of both layouts and corruptions of them — to DecodeTrailer and DataOff:
// neither may panic, and the extent of a trailer both accept lies inside
// the segment, data below the summary. Each input is judged as it is and
// again with its checksum made good, so that a mutated count reaches
// DataOff instead of dying at the CRC.
func FuzzTrailerDecode(f *testing.F) {
	l := fuzzLayout()
	rng := rand.New(rand.NewSource(1))
	for _, km := range [][2]int{{0, 0}, {2, 5}, {l.BlocksPerSeg(), 0}, {0, 400}} {
		img, _, _ := randomImage(rng, l, 9, km[0], km[1])
		for _, sec := range [][]byte{img[len(img)-SectorSize:], frontPacked(l, img)[l.SegBytes-SectorSize:]} {
			f.Add(sec)
			for _, pos := range []int{0, 3, 4, 12, 15, 16, 20, 23, 24, 28} {
				mut := append([]byte(nil), sec...)
				mut[pos] ^= 0xff
				f.Add(mut)
			}
			f.Add(sec[:40])
		}
	}
	judge := func(t *testing.T, data []byte) {
		tr, err := DecodeTrailer(data)
		if err != nil {
			return
		}
		off, err := tr.DataOff(l)
		if err != nil {
			return
		}
		end := int64(off) + int64(tr.DataBlocks)*int64(l.BlockSize)
		if off < 0 || end > int64(l.SegBytes-tr.SummaryBytes()) || tr.SummaryBytes() > l.SegBytes {
			t.Fatalf("accepted trailer %+v: data [%d, %d) and a %d-byte summary in a %d-byte segment",
				tr, off, end, tr.SummaryBytes(), l.SegBytes)
		}
		if !tr.FrontPacked && end != int64(l.SegBytes-tr.SummaryBytes()) {
			t.Fatalf("accepted tail-packed trailer %+v leaves a gap: data ends at %d", tr, end)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		judge(t, data)
		if len(data) >= SectorSize {
			sec := append([]byte(nil), data[len(data)-SectorSize:]...)
			binary.LittleEndian.PutUint32(sec[28:], crc32.Checksum(sec[:28], crcTable))
			judge(t, sec)
		}
	})
}
