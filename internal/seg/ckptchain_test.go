package seg

import (
	"encoding/binary"
	"errors"
	"testing"
)

func chainLayout() Layout {
	return Layout{BlockSize: 1024, SegBytes: 8192, NumSegs: 16, MaxBlocks: 256, MaxLists: 64}
}

func testBase() CkptRec {
	return CkptRec{
		Base:       true,
		CkptTS:     10,
		FlushedSeq: 3,
		NextTS:     100,
		NextBlock:  7,
		NextList:   4,
		NextARU:    2,
		Blocks: []BlockRec{
			{ID: 1, Seg: 2, Slot: 3, Succ: 2, List: 1, TS: 50, HasData: true},
			{ID: 2, Succ: NilBlock, List: 1, TS: 60},
		},
		Lists: []ListRec{{ID: 1, First: 1, Last: 2, TS: 60}},
	}
}

func TestCkptRecRoundTrip(t *testing.T) {
	l := chainLayout()
	want := testBase()
	buf, err := EncodeCkptRec(l, want)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if int64(len(buf))%SectorSize != 0 {
		t.Fatalf("record not sector-rounded: %d", len(buf))
	}
	got, n, err := DecodeCkptRec(buf)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if n != int64(len(buf)) {
		t.Fatalf("wire length %d, buffer %d", n, len(buf))
	}
	if got.CkptTS != want.CkptTS || got.FlushedSeq != want.FlushedSeq || !got.Base ||
		len(got.Blocks) != 2 || len(got.Lists) != 1 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if got.Lists[0].TS != 60 {
		t.Fatalf("list TS lost: %+v", got.Lists[0])
	}
	if got.Blocks[0] != want.Blocks[0] || got.Blocks[1] != want.Blocks[1] {
		t.Fatalf("block records mismatch: %+v", got.Blocks)
	}
}

// buildChain writes base + deltas contiguously into a region buffer.
func buildChain(t *testing.T, l Layout, recs ...CkptRec) []byte {
	t.Helper()
	region := make([]byte, l.CkptRegionBytes())
	off := int64(0)
	for _, r := range recs {
		buf, err := EncodeCkptRec(l, r)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		copy(region[off:], buf)
		off += int64(len(buf))
	}
	return region
}

func TestCkptChainMaterialize(t *testing.T) {
	l := chainLayout()
	base := testBase()
	d1 := CkptRec{
		CkptTS: 11, PrevTS: 10, FlushedSeq: 5, NextTS: 120, NextBlock: 9, NextList: 5, NextARU: 3,
		Blocks:    []BlockRec{{ID: 7, Seg: 4, Slot: 0, Succ: NilBlock, List: 2, TS: 110, HasData: true}},
		Lists:     []ListRec{{ID: 2, First: 7, Last: 7, TS: 110}},
		DelBlocks: []BlockID{2},
	}
	d2 := CkptRec{
		CkptTS: 12, PrevTS: 11, FlushedSeq: 6, NextTS: 130, NextBlock: 9, NextList: 5, NextARU: 3,
		Blocks:   []BlockRec{{ID: 1, Seg: 5, Slot: 1, Succ: NilBlock, List: 1, TS: 125, HasData: true}},
		Lists:    []ListRec{{ID: 1, First: 1, Last: 1, TS: 125}},
		DelLists: []ListID{3},
	}
	region := buildChain(t, l, base, d1, d2)
	c, err := DecodeCkptChain(region)
	if err != nil {
		t.Fatalf("decode chain: %v", err)
	}
	if c.Depth() != 2 {
		t.Fatalf("chain depth %d", c.Depth())
	}
	ck := c.Materialize()
	if ck.CkptTS != 12 || ck.FlushedSeq != 6 || ck.NextTS != 130 {
		t.Fatalf("head scalars wrong: %+v", ck)
	}
	// Block 2 deleted by d1; block 1 upserted by d2; block 7 added by d1.
	if len(ck.Blocks) != 2 {
		t.Fatalf("want 2 blocks, got %+v", ck.Blocks)
	}
	if ck.Blocks[0].ID != 1 || ck.Blocks[0].Seg != 5 || ck.Blocks[0].TS != 125 {
		t.Fatalf("block 1 not upserted: %+v", ck.Blocks[0])
	}
	if ck.Blocks[1].ID != 7 {
		t.Fatalf("block 7 missing: %+v", ck.Blocks[1])
	}
	if len(ck.Lists) != 2 || ck.Lists[0].ID != 1 || ck.Lists[1].ID != 2 {
		t.Fatalf("lists wrong: %+v", ck.Lists)
	}
}

func TestCkptChainCutsAtTornDelta(t *testing.T) {
	l := chainLayout()
	base := testBase()
	d1 := CkptRec{CkptTS: 11, PrevTS: 10, FlushedSeq: 5, NextTS: 120, NextBlock: 9, NextList: 5, NextARU: 3}
	region := buildChain(t, l, base, d1)
	// Tear the delta: corrupt one byte inside its header.
	baseLen := base.WireBytes()
	region[baseLen+20] ^= 0xff
	c, err := DecodeCkptChain(region)
	if err != nil {
		t.Fatalf("decode chain: %v", err)
	}
	if c.Depth() != 0 || c.Head().CkptTS != 10 {
		t.Fatalf("torn delta should cut chain at base: depth %d head %d", c.Depth(), c.Head().CkptTS)
	}
}

func TestCkptChainRejectsStaleLifetimeRecord(t *testing.T) {
	l := chainLayout()
	// An older chain lifetime left a CRC-valid delta behind (PrevTS 10);
	// the new base has CkptTS 20, so the stale record must not splice in.
	base := testBase()
	base.CkptTS = 20
	stale := CkptRec{CkptTS: 11, PrevTS: 10, FlushedSeq: 4, NextTS: 110, NextBlock: 8, NextList: 4, NextARU: 2,
		Blocks: []BlockRec{{ID: 99, TS: 105, HasData: true, Seg: 1}}}
	region := buildChain(t, l, base, stale)
	c, err := DecodeCkptChain(region)
	if err != nil {
		t.Fatalf("decode chain: %v", err)
	}
	if c.Depth() != 0 {
		t.Fatalf("stale record spliced into chain: %+v", c.Recs)
	}
	ck := c.Materialize()
	for _, b := range ck.Blocks {
		if b.ID == 99 {
			t.Fatal("stale record's block leaked into materialization")
		}
	}
}

func TestCkptChainEmptyRegion(t *testing.T) {
	l := chainLayout()
	region := make([]byte, l.CkptRegionBytes())
	_, err := DecodeCkptChain(region)
	if !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("want ErrBadCheckpoint, got %v", err)
	}
}

func TestCkptChainDeltaAtOffsetZero(t *testing.T) {
	l := chainLayout()
	d := CkptRec{CkptTS: 11, PrevTS: 10, FlushedSeq: 5, NextTS: 120, NextBlock: 9, NextList: 5, NextARU: 3}
	region := buildChain(t, l, d)
	if _, err := DecodeCkptChain(region); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("delta at offset 0 must be rejected, got %v", err)
	}
}

// TestReadCkptChainFetchesOnlyTheChain: the piecewise reader returns the
// chain DecodeCkptChain returns and fetches the records it holds — header
// sector first, then the rest of each record, plus the one sector that
// ends the chain — not the region; a region under the retired
// single-snapshot magic costs its first sector and is ErrRetiredFormat, an
// empty one its first sector and ErrBadCheckpoint, and a read error is
// passed through as it is.
func TestReadCkptChainFetchesOnlyTheChain(t *testing.T) {
	l := chainLayout()
	base := testBase()
	for i := 3; i < 40; i++ { // several sectors of payload
		base.Blocks = append(base.Blocks, BlockRec{ID: BlockID(i), Seg: 1, Slot: uint32(i), List: 1, TS: 70, HasData: true})
	}
	d1 := CkptRec{CkptTS: 11, PrevTS: 10, FlushedSeq: 5, DelBlocks: []BlockID{2}}
	stale := CkptRec{CkptTS: 9, PrevTS: 8, FlushedSeq: 2} // an older lifetime's delta past the chain's end
	region := buildChain(t, l, base, d1, stale)
	want, err := DecodeCkptChain(region)
	if err != nil || want.Depth() != 1 {
		t.Fatalf("DecodeCkptChain: depth %d, %v", want.Depth(), err)
	}
	fetch := func(region []byte, fetched *int64) func(p []byte, off int64) error {
		return func(p []byte, off int64) error {
			if off%SectorSize != 0 || len(p)%SectorSize != 0 {
				t.Fatalf("unaligned fetch: %d bytes at %d", len(p), off)
			}
			*fetched += int64(len(p))
			copy(p, region[off:off+int64(len(p))])
			return nil
		}
	}
	var fetched int64
	got, err := ReadCkptChain(int64(len(region)), fetch(region, &fetched))
	if err != nil || got.NextOff != want.NextOff || got.Depth() != want.Depth() || got.Head().CkptTS != want.Head().CkptTS ||
		len(got.Materialize().Blocks) != len(want.Materialize().Blocks) {
		t.Fatalf("ReadCkptChain: %+v, %v; want the chain DecodeCkptChain finds", got, err)
	}
	if limit := want.NextOff + stale.WireBytes(); fetched > limit || fetched >= int64(len(region)) {
		t.Fatalf("fetched %d bytes of a %d-byte region for a %d-byte chain", fetched, len(region), want.NextOff)
	}

	retired := make([]byte, l.CkptRegionBytes())
	binary.LittleEndian.PutUint32(retired, retiredCkptMagic)
	fetched = 0
	if _, err := ReadCkptChain(int64(len(retired)), fetch(retired, &fetched)); !errors.Is(err, ErrRetiredFormat) || fetched != SectorSize {
		t.Fatalf("retired region: %v after %d bytes", err, fetched)
	}
	if _, err := DecodeCkptChain(retired); !errors.Is(err, ErrRetiredFormat) || errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("retired region decodes as %v", err)
	}

	empty := make([]byte, l.CkptRegionBytes())
	fetched = 0
	if _, err := ReadCkptChain(int64(len(empty)), fetch(empty, &fetched)); !errors.Is(err, ErrBadCheckpoint) || fetched != SectorSize {
		t.Fatalf("empty region: %v after %d bytes", err, fetched)
	}

	boom := errors.New("boom")
	calls := 0
	_, err = ReadCkptChain(int64(len(region)), func(p []byte, off int64) error {
		if calls++; calls == 2 {
			return boom
		}
		copy(p, region[off:])
		return nil
	})
	if !errors.Is(err, boom) || errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("read error came back as %v", err)
	}
}
