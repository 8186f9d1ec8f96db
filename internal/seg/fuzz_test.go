package seg

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
)

// fuzzLayout is a small but realistic layout, the same shape the
// crash-enumeration checker formats (internal/crashenum).
func fuzzLayout() Layout {
	return Layout{BlockSize: 1024, SegBytes: 8192, NumSegs: 96, MaxBlocks: 2048, MaxLists: 512}
}

// seedCheckpoints builds the checkpoint bases a real formatted disk
// contains: the empty one Format writes and a populated one with linked
// lists, unwritten blocks, and a leaked (NilList) allocation.
func seedCheckpoints(t testing.TB) [][]byte {
	t.Helper()
	var out [][]byte
	for _, r := range []CkptRec{
		{Base: true, CkptTS: 1, NextTS: 1, NextBlock: 1, NextList: 1, NextARU: 1},
		seedChainRecords()[0],
	} {
		buf, err := EncodeCkptRec(fuzzLayout(), r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, buf)
	}
	return out
}

// FuzzCheckpointDecode feeds arbitrary bytes, as a checkpoint region, to
// ReadCkptChain, the reader mount uses — seeded from real bases, a region
// under the retired single-snapshot magic, and corruptions of them. The
// reader may not panic; it is ErrRetiredFormat exactly when the region
// starts with the retired magic; and any chain it accepts materializes to
// tables that, encoded as the one base a compaction writes, read back to
// the same checkpoint.
func FuzzCheckpointDecode(f *testing.F) {
	for _, img := range seedCheckpoints(f) {
		f.Add(img)
		f.Add(img[:len(img)/2])
		// Magic, flags, CkptTS, the block and list counts, both CRCs, the
		// last byte.
		for _, pos := range []int{0, 4, 8, 64, 68, 80, 84, len(img) - 1} {
			mut := bytes.Clone(img)
			mut[pos] ^= 0xff
			f.Add(mut)
		}
	}
	retired := make([]byte, 2*SectorSize)
	binary.LittleEndian.PutUint32(retired, retiredCkptMagic)
	f.Add(retired)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCkptChain(int64(len(data)), func(p []byte, off int64) error {
			copy(p, data[off:])
			return nil
		})
		if retired := len(data) >= 4 && binary.LittleEndian.Uint32(data) == retiredCkptMagic; errors.Is(err, ErrRetiredFormat) != retired {
			t.Fatalf("a region starting %x reads as %v", data[:min(len(data), 4)], err)
		}
		if err != nil {
			return
		}
		ck := c.Materialize()
		base := CkptRec{Base: true, CkptTS: ck.CkptTS, FlushedSeq: ck.FlushedSeq, NextTS: ck.NextTS,
			NextBlock: ck.NextBlock, NextList: ck.NextList, NextARU: ck.NextARU, Blocks: ck.Blocks, Lists: ck.Lists}
		// A region whose geometry holds the base: 41 bytes a block and 48
		// a list cover the record's 41 and 32 and its longer header.
		l := Layout{MaxBlocks: len(ck.Blocks) + 1, MaxLists: 2*len(ck.Lists) + 1}
		enc, err := EncodeCkptRec(l, base)
		if err != nil {
			t.Fatalf("materialized tables do not encode as a base: %v", err)
		}
		c2, err := DecodeCkptChain(enc)
		if err != nil {
			t.Fatalf("the base does not read back: %v", err)
		}
		if ck2 := c2.Materialize(); !reflect.DeepEqual(ck, ck2) {
			t.Fatalf("round trip unstable:\n first %+v\nsecond %+v", ck, ck2)
		}
	})
}

// FuzzSuperDecode feeds arbitrary bytes — seeded from real superblock
// images — to DecodeSuper. The decoder must never panic, must reject
// invalid geometry, and anything it accepts must round-trip.
func FuzzSuperDecode(f *testing.F) {
	for _, l := range []Layout{
		fuzzLayout(),
		{BlockSize: 4096, SegBytes: 1 << 19, NumSegs: 32, MaxBlocks: 4096, MaxLists: 256},
	} {
		img := EncodeSuper(l)
		f.Add(img)
		for _, pos := range []int{0, 8, 12, 16, 28, len(img) - 1} {
			mut := append([]byte(nil), img...)
			mut[pos] ^= 0xff
			f.Add(mut)
		}
		f.Add(img[:16])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := DecodeSuper(data)
		if err != nil {
			return
		}
		if err := l.Validate(); err != nil {
			t.Fatalf("accepted layout fails validation: %v", err)
		}
		l2, err := DecodeSuper(EncodeSuper(l))
		if err != nil {
			t.Fatalf("re-encoded superblock does not decode: %v", err)
		}
		if l != l2 {
			t.Fatalf("round trip unstable: %+v vs %+v", l, l2)
		}
	})
}
