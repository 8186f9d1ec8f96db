package seg

import (
	"reflect"
	"testing"
)

// seedChainRecords builds the chain records a real incremental
// checkpoint writer produces: a populated base, a delta carrying
// upserts for newly dirtied blocks and lists, and a delta carrying
// deletions (freed blocks, deleted lists). These are encoded with the
// same EncodeCkptRec the engine's checkpoint path uses, so the seeds
// are byte-identical to on-disk incremental images.
func seedChainRecords() []CkptRec {
	base := CkptRec{
		Base:   true,
		CkptTS: 42, FlushedSeq: 17, NextTS: 911, NextBlock: 9, NextList: 4, NextARU: 6,
		Blocks: []BlockRec{
			{ID: 1, Seg: 3, Slot: 0, Succ: 2, List: 1, TS: 100, HasData: true},
			{ID: 2, Seg: 3, Slot: 1, Succ: NilBlock, List: 1, TS: 101, HasData: true},
			{ID: 5, Succ: NilBlock, List: 2, TS: 104},       // allocated, never written
			{ID: 8, Succ: NilBlock, List: NilList, TS: 108}, // leaked allocation
		},
		Lists: []ListRec{
			{ID: 1, First: 1, Last: 2, TS: 101},
			{ID: 2, First: 5, Last: 5, TS: 104},
			{ID: 3, First: NilBlock, Last: NilBlock, TS: 90},
		},
	}
	upserts := CkptRec{
		CkptTS: 43, PrevTS: 42, FlushedSeq: 19, NextTS: 950, NextBlock: 11, NextList: 5, NextARU: 7,
		Blocks: []BlockRec{
			{ID: 2, Seg: 7, Slot: 0, Succ: 9, List: 1, TS: 920, HasData: true}, // rewritten
			{ID: 9, Seg: 7, Slot: 1, Succ: NilBlock, List: 1, TS: 921, HasData: true},
		},
		Lists: []ListRec{{ID: 1, First: 1, Last: 9, TS: 921}},
	}
	deletions := CkptRec{
		CkptTS: 44, PrevTS: 43, FlushedSeq: 21, NextTS: 980, NextBlock: 11, NextList: 5, NextARU: 8,
		Blocks:    []BlockRec{{ID: 5, Seg: 8, Slot: 0, Succ: NilBlock, List: 2, TS: 960, HasData: true}},
		DelBlocks: []BlockID{1, 8},
		DelLists:  []ListID{3},
	}
	return []CkptRec{base, upserts, deletions}
}

// seedChainImages encodes the seed records individually and as a
// contiguous region-resident chain, mirroring what a checkpoint region
// holds after a base and two delta appends.
func seedChainImages(t testing.TB) [][]byte {
	t.Helper()
	l := fuzzLayout()
	var out [][]byte
	region := make([]byte, l.CkptRegionBytes())
	off := int64(0)
	for _, r := range seedChainRecords() {
		buf, err := EncodeCkptRec(l, r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, buf)
		copy(region[off:], buf)
		off += int64(len(buf))
	}
	out = append(out, region[:off], region)
	return append(out, seedCheckpoints(t)...)
}

// FuzzCheckpointDeltaDecode feeds arbitrary bytes — seeded from real
// incremental checkpoint images (base + upsert delta + deletion
// delta, individually and chained in a region) — to the chain
// decoders. Neither DecodeCkptRec nor DecodeCkptChain may ever panic;
// any record DecodeCkptRec accepts must re-encode and re-decode to
// the identical record; any chain DecodeCkptChain accepts must start
// at a base, carry strictly monotonic correctly linked timestamps,
// and materialize without panicking.
func FuzzCheckpointDeltaDecode(f *testing.F) {
	for _, img := range seedChainImages(f) {
		f.Add(img)
		f.Add(img[:len(img)/2]) // torn tail
		// Systematic corruptions of the real image: magic, flags,
		// CkptTS, the four table counts, both CRCs, last payload byte.
		for _, pos := range []int{0, 4, 8, 64, 68, 72, 76, 80, 84, len(img) - 1} {
			if pos < len(img) {
				mut := append([]byte(nil), img...)
				mut[pos] ^= 0xff
				f.Add(mut)
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if r, n, err := DecodeCkptRec(data); err == nil {
			if n <= 0 || n%SectorSize != 0 || n > int64(len(data))+SectorSize {
				t.Fatalf("accepted record has bad wire length %d (buffer %d)", n, len(data))
			}
			if n != r.WireBytes() {
				t.Fatalf("decoded wire length %d disagrees with WireBytes %d", n, r.WireBytes())
			}
			// The writer never emits a base with deletions (EncodeCkptRec
			// rejects it); a forged image may carry one, so only
			// writer-producible records are held to round-trip.
			if !r.Base || (len(r.DelBlocks) == 0 && len(r.DelLists) == 0) {
				l := Layout{
					MaxBlocks: max(len(r.Blocks), len(r.DelBlocks)),
					MaxLists:  max(len(r.Lists), len(r.DelLists)),
				}
				enc, err := EncodeCkptRec(l, r)
				if err != nil {
					t.Fatalf("accepted record does not re-encode: %v", err)
				}
				r2, _, err := DecodeCkptRec(enc)
				if err != nil {
					t.Fatalf("re-encoded record does not decode: %v", err)
				}
				if !reflect.DeepEqual(r, r2) {
					t.Fatalf("round trip unstable:\n first %+v\nsecond %+v", r, r2)
				}
			}
		}
		c, err := DecodeCkptChain(data)
		if err != nil {
			return
		}
		if len(c.Recs) == 0 {
			t.Fatal("accepted chain has no records")
		}
		if !c.Recs[0].Base {
			t.Fatalf("accepted chain does not start at a base: %+v", c.Recs[0])
		}
		for i := 1; i < len(c.Recs); i++ {
			prev, cur := c.Recs[i-1], c.Recs[i]
			if cur.Base {
				t.Fatalf("delta position %d holds a base record", i)
			}
			if cur.PrevTS != prev.CkptTS || cur.CkptTS <= prev.CkptTS {
				t.Fatalf("chain link broken at %d: prev CkptTS %d, rec PrevTS %d CkptTS %d",
					i, prev.CkptTS, cur.PrevTS, cur.CkptTS)
			}
		}
		ck := c.Materialize()
		if ck.CkptTS != c.Head().CkptTS || ck.FlushedSeq != c.Head().FlushedSeq {
			t.Fatalf("materialized scalars not taken from head: %+v vs %+v", ck, c.Head())
		}
	})
}

// TestChainMaterializeEqualsFold cross-checks Materialize against an
// independent fold of the seed chain: applying each record's upserts
// and deletions to plain maps must yield exactly the materialized
// tables.
func TestChainMaterializeEqualsFold(t *testing.T) {
	l := fuzzLayout()
	recs := seedChainRecords()
	region := make([]byte, l.CkptRegionBytes())
	off := int64(0)
	for _, r := range recs {
		buf, err := EncodeCkptRec(l, r)
		if err != nil {
			t.Fatal(err)
		}
		copy(region[off:], buf)
		off += int64(len(buf))
	}
	c, err := DecodeCkptChain(region)
	if err != nil {
		t.Fatal(err)
	}
	if c.Depth() != len(recs)-1 {
		t.Fatalf("chain depth %d, want %d", c.Depth(), len(recs)-1)
	}
	blocks := make(map[BlockID]BlockRec)
	lists := make(map[ListID]ListRec)
	for _, r := range recs {
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
	ck := c.Materialize()
	if len(ck.Blocks) != len(blocks) || len(ck.Lists) != len(lists) {
		t.Fatalf("materialized %d blocks / %d lists, fold has %d / %d",
			len(ck.Blocks), len(ck.Lists), len(blocks), len(lists))
	}
	for _, b := range ck.Blocks {
		if blocks[b.ID] != b {
			t.Fatalf("block %d: materialized %+v, fold %+v", b.ID, b, blocks[b.ID])
		}
	}
	for _, li := range ck.Lists {
		if lists[li.ID] != li {
			t.Fatalf("list %d: materialized %+v, fold %+v", li.ID, li, lists[li.ID])
		}
	}
}
