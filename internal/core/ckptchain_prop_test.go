package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"aru/internal/disk"
	"aru/internal/seg"
)

// chainHistory drives one seeded mixed-ARU history — units with lists,
// blocks, overwrites, deletions and aborts, plus pool writes, flushes
// and checkpoints — identically against each engine in ds. Checkpoints
// land at the same history points on every engine, so engines differing
// only in CkptCompactEvery produce delta chains versus full bases for
// the same logical state.
func chainHistory(t *testing.T, seed int64, units int, ds ...*LLD) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	bsize := ds[0].BlockSize()
	each := func(fn func(d *LLD) error) {
		t.Helper()
		for _, d := range ds {
			if err := fn(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	for u := 0; u < units; u++ {
		abort := rng.Intn(100) < 20
		nBlocks := 1 + rng.Intn(3)
		rewrite := rng.Intn(2) == 0
		del := rng.Intn(3) == 0
		payload := func(serial int) []byte {
			buf := make([]byte, bsize)
			rnd := rand.New(rand.NewSource(seed<<20 ^ int64(u)<<8 ^ int64(serial)))
			rnd.Read(buf)
			return buf
		}
		each(func(d *LLD) error {
			aru, err := d.BeginARU()
			if err != nil {
				return err
			}
			lst, err := d.NewList(aru)
			if err != nil {
				return err
			}
			var blocks []BlockID
			for i := 0; i < nBlocks; i++ {
				b, err := d.NewBlock(aru, lst, NilBlock)
				if err != nil {
					return err
				}
				if err := d.Write(aru, b, payload(i)); err != nil {
					return err
				}
				blocks = append(blocks, b)
			}
			if rewrite {
				if err := d.Write(aru, blocks[0], payload(100)); err != nil {
					return err
				}
			}
			if del && len(blocks) > 1 {
				if err := d.DeleteBlock(aru, blocks[len(blocks)-1]); err != nil {
					return err
				}
			}
			if abort {
				return d.AbortARU(aru)
			}
			return d.EndARU(aru)
		})
		if rng.Intn(3) == 0 {
			each((*LLD).Flush)
		}
		if rng.Intn(3) == 0 {
			each((*LLD).Checkpoint)
		}
	}
	each((*LLD).Flush)
	each((*LLD).Checkpoint)
}

// newestChain decodes both checkpoint regions of img and returns the
// chain with the newest head.
func newestChain(t *testing.T, img []byte, l seg.Layout) seg.CkptChain {
	t.Helper()
	var best seg.CkptChain
	found := false
	for i := 0; i < 2; i++ {
		off := l.CkptOff(i)
		ch, err := seg.DecodeCkptChain(img[off : off+l.CkptRegionBytes()])
		if err != nil {
			continue
		}
		if !found || ch.Head().CkptTS > best.Head().CkptTS {
			best, found = ch, true
		}
	}
	if !found {
		t.Fatal("no valid checkpoint chain in image")
	}
	return best
}

// TestChainMaterializationEquivalence: for seeded mixed-ARU histories,
// the base+delta chain an incremental engine leaves on disk must
// materialize to exactly the full checkpoint a compact-always engine
// writes for the same history — and both images must recover to the
// same logical state.
func TestChainMaterializationEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 7} {
		full := Params{Layout: testLayout(128), CheckpointEvery: -1, CkptCompactEvery: -1}
		incr := Params{Layout: testLayout(128), CheckpointEvery: -1, CkptCompactEvery: 1 << 20}
		devFull := disk.NewMem(full.Layout.DiskBytes())
		devIncr := disk.NewMem(incr.Layout.DiskBytes())
		dFull, err := Format(devFull, full)
		if err != nil {
			t.Fatal(err)
		}
		dIncr, err := Format(devIncr, incr)
		if err != nil {
			t.Fatal(err)
		}
		chainHistory(t, seed, 24, dFull, dIncr)

		chFull := newestChain(t, devFull.Image(), full.Layout)
		chIncr := newestChain(t, devIncr.Image(), incr.Layout)
		if chFull.Depth() != 0 {
			t.Fatalf("seed %d: compact-always engine left a chain of depth %d", seed, chFull.Depth())
		}
		if chIncr.Depth() == 0 {
			t.Fatalf("seed %d: incremental engine never appended a delta", seed)
		}
		ckFull, ckIncr := chFull.Materialize(), chIncr.Materialize()
		if !reflect.DeepEqual(ckFull, ckIncr) {
			t.Fatalf("seed %d: chain materialization diverges from full checkpoint:\n full %+v\nchain %+v",
				seed, ckFull, ckIncr)
		}

		rFull, err := Open(disk.FromImage(devFull.Image(), disk.Geometry{}), full)
		if err != nil {
			t.Fatal(err)
		}
		rIncr, err := Open(disk.FromImage(devIncr.Image(), disk.Geometry{}), incr)
		if err != nil {
			t.Fatal(err)
		}
		sFull, sIncr := logicalState(t, rFull), logicalState(t, rIncr)
		if !reflect.DeepEqual(sFull, sIncr) {
			t.Fatalf("seed %d: recovered states diverge", seed)
		}
		if err := rIncr.VerifyInternal(); err != nil {
			t.Fatalf("seed %d: incremental recovery: %v", seed, err)
		}
		deltaDedup(t, dIncr, devIncr, incr.Layout)
	}
}

// deltaDedup is the delta's de-duplication case: a block promoted several
// times between two checkpoints appears once in the delta's Blocks, and a
// block written and then deleted appears once in its DelBlocks — and both
// tables are in ID order, as the encoding wants them.
func deltaDedup(t *testing.T, d *LLD, dev *disk.Sim, l seg.Layout) {
	t.Helper()
	lst, err := d.NewList(0)
	if err != nil {
		t.Fatal(err)
	}
	x, err := d.NewBlock(0, lst, NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	y, err := d.NewBlock(0, lst, x)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := byte(0); i < 3; i++ {
		// Each flush seals the write, and the seal promotes it.
		if err := d.Write(0, x, fill(d, i)); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Write(0, y, fill(d, 9)); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteBlock(0, y); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	head := newestChain(t, dev.Image(), l).Head()
	if head.Base {
		t.Fatal("the checkpoint after the case wrote a base, not a delta")
	}
	count := func(ids []BlockID, id BlockID) int {
		n := 0
		for _, v := range ids {
			if v == id {
				n++
			}
		}
		return n
	}
	ids := make([]BlockID, len(head.Blocks))
	for i, r := range head.Blocks {
		ids[i] = r.ID
	}
	if n := count(ids, x); n != 1 {
		t.Errorf("block %d, promoted three times, is in the delta's Blocks %d times", x, n)
	}
	if n := count(head.DelBlocks, y); n != 1 || count(ids, y) != 0 {
		t.Errorf("block %d, dirtied then deleted, is in DelBlocks %d times and in Blocks %d times", y, n, count(ids, y))
	}
	if !slices.IsSorted(ids) || !slices.IsSorted(head.DelBlocks) {
		t.Errorf("delta tables out of ID order: Blocks %v, DelBlocks %v", ids, head.DelBlocks)
	}
}

// TestRecoveryIdempotence: REDO-only replay must converge — recovering
// the same crash image twice (second recovery over whatever the first
// wrote back) yields the same logical state as recovering it once, for
// images cut mid-history with a live delta chain.
func TestRecoveryIdempotence(t *testing.T) {
	for _, seed := range []int64{1, 5, 9} {
		p := Params{Layout: testLayout(128), CheckpointEvery: -1, CkptCompactEvery: 2}
		dev := disk.NewMem(p.Layout.DiskBytes())
		d, err := Format(dev, p)
		if err != nil {
			t.Fatal(err)
		}
		chainHistory(t, seed, 16, d)
		// More un-checkpointed work on top, then a flush but no
		// checkpoint: the crash image has a chain plus a log tail to
		// replay.
		aru, err := d.BeginARU()
		if err != nil {
			t.Fatal(err)
		}
		lst, err := d.NewList(aru)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.NewBlock(aru, lst, NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, d.BlockSize())
		buf[0] = 0xaa
		if err := d.Write(aru, b, buf); err != nil {
			t.Fatal(err)
		}
		if err := d.EndARU(aru); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		img := dev.Image()

		dev1 := disk.FromImage(img, disk.Geometry{})
		r1, err := Open(dev1, p)
		if err != nil {
			t.Fatal(err)
		}
		s1 := logicalState(t, r1)
		// Second recovery over the image the first recovery left behind
		// (including any writes it issued).
		r2, err := Open(disk.FromImage(dev1.Image(), disk.Geometry{}), p)
		if err != nil {
			t.Fatalf("seed %d: re-recovery failed: %v", seed, err)
		}
		s2 := logicalState(t, r2)
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("seed %d: re-recovery diverged from first recovery", seed)
		}
		if err := r2.VerifyInternal(); err != nil {
			t.Fatalf("seed %d: re-recovered state: %v", seed, err)
		}
	}
}

// TestDeltaEncodesAsGathered: a delta is encoded straight from its dirty
// sets (encodeDelta) with no gathered record in between. On random dirty
// sets over a seeded history — live identifiers, deleted ones, never
// allocated ones, repeats — on records padded to their last sector and on
// one that ends exactly on it, the bytes must equal EncodeCkptRec of the
// record the gather used to build; a delta larger than a whole region is
// refused by both, one that fits only because most of it is deletions by
// neither; and a delta past the room left in its region makes
// gatherCkpt compact into a base. The dirty sets come out as the same
// sets.
func TestDeltaEncodesAsGathered(t *testing.T) {
	p := Params{Layout: testLayout(128), CheckpointEvery: -1, CkptCompactEvery: 1 << 20}
	d, _ := newTestLLD(t, p)
	defer d.Close()
	chainHistory(t, 5, 40, d)
	l := d.params.Layout
	h := seg.CkptRec{CkptTS: 41, PrevTS: 40, FlushedSeq: 77, NextTS: 9000, NextBlock: 123, NextList: 45, NextARU: 67}

	// check encodes the delta over dirty sets blocks and lists both ways.
	// It reports whether the record was refused and whether it ended on a
	// sector boundary.
	check := func(name string, blocks []BlockID, lists []ListID) (refused, exact bool) {
		t.Helper()
		d.mu.Lock()
		defer d.mu.Unlock()
		d.dirtyBlocks = dirtySet[BlockID]{ids: slices.Clone(blocks)}
		d.dirtyLists = dirtySet[ListID]{ids: slices.Clone(lists)}
		sb, sl := slices.Clone(d.dirtyBlocks.sorted()), slices.Clone(d.dirtyLists.sorted())
		r := h
		for _, id := range sb {
			if lf := pmapGet(d.blockTab.root, uint64(id)); lf != nil && lf.hasPersist {
				r.Blocks = append(r.Blocks, lf.persist)
			} else {
				r.DelBlocks = append(r.DelBlocks, id)
			}
		}
		for _, id := range sl {
			if lf := pmapGet(d.listTab.root, uint64(id)); lf != nil && lf.hasPersist {
				r.Lists = append(r.Lists, lf.persist)
			} else {
				r.DelLists = append(r.DelLists, id)
			}
		}
		want, wantErr := seg.EncodeCkptRec(l, r)
		got, gotErr := d.encodeDelta(d.dirtyBlocks.sorted(), d.dirtyLists.sorted(), h)
		switch {
		case (wantErr != nil) != (gotErr != nil):
			t.Fatalf("%s: gathered encoding says %v, streamed says %v", name, wantErr, gotErr)
		case !bytes.Equal(got, want):
			t.Fatalf("%s: streamed delta (%d bytes) differs from the gathered record's encoding (%d bytes)", name, len(got), len(want))
		}
		gb, gl := slices.Clone(d.dirtyBlocks.ids), slices.Clone(d.dirtyLists.ids)
		slices.Sort(gb)
		slices.Sort(gl)
		if !slices.Equal(gb, sb) || !slices.Equal(gl, sl) {
			t.Fatalf("%s: encoding changed the dirty sets", name)
		}
		unrounded := 88 + 41*len(r.Blocks) + 32*len(r.Lists) + 8*(len(r.DelBlocks)+len(r.DelLists))
		return wantErr != nil, unrounded%seg.SectorSize == 0
	}

	rng := rand.New(rand.NewSource(5))
	var padded bool
	for trial := 0; trial < 200; trial++ {
		blocks := make([]BlockID, rng.Intn(300))
		for i := range blocks {
			blocks[i] = BlockID(1 + rng.Intn(int(d.nextBlk)+40)) // repeats, live, deleted and never allocated
		}
		lists := make([]ListID, rng.Intn(40))
		for i := range lists {
			lists[i] = ListID(1 + rng.Intn(int(d.nextLst)+10))
		}
		_, exact := check("random", blocks, lists)
		padded = padded || !exact
	}
	if !padded {
		t.Fatal("no random record was padded")
	}

	// 88 + 13·32 + 8 = 512: thirteen live lists and one deletion end on
	// the sector.
	var live []ListID
	pmapWalk(d.listTab.root, func(lf *listLeaf) bool {
		if lf.hasPersist && len(live) < 13 {
			live = append(live, ListID(lf.id))
		}
		return true
	})
	if len(live) < 13 {
		t.Fatalf("the history left %d lists, want 13", len(live))
	}
	if _, exact := check("unpadded", []BlockID{d.nextBlk + 1}, live); !exact {
		t.Fatal("the unpadded case is padded")
	}

	// Deletions only, never allocated identifiers: n of them overflow a
	// region as upserts but fit as deletions; m overflow it either way.
	n := 1
	for l.CkptFits(n, 0, 0) {
		n *= 2
	}
	m := n
	for l.CkptFits(0, 0, m) {
		m *= 2
	}
	absent := func(k int) []BlockID {
		ids := make([]BlockID, k)
		for i := range ids {
			ids[i] = d.nextBlk + 1 + BlockID(i)
		}
		return ids
	}
	if refused, _ := check("fits only as deletions", absent(n), nil); refused {
		t.Fatal("a record of deletions that fits its region was refused")
	}
	if refused, _ := check("larger than a region", absent(m), nil); !refused {
		t.Fatal("a record larger than its region was not refused")
	}

	// Past the room left in the region, the delta compacts into a base.
	d.mu.Lock()
	d.dirtyBlocks = dirtySet[BlockID]{ids: absent(4)}
	d.dirtyLists = dirtySet[ListID]{}
	d.ckptChainOff = l.CkptRegionBytes()
	region := d.ckptRegion
	ck, err := d.gatherCkpt()
	d.ckptBase = true // the chain offset above is fiction: make the next real record a base
	d.mu.Unlock()
	ck.sp.End(0, 0, 0)
	if err != nil || !ck.base || ck.region == region || ck.off != 0 {
		t.Fatalf("a delta past its region's room: base %v in region %d at %d (chain in %d), err %v", ck.base, ck.region, ck.off, region, err)
	}
	rec, _, err := seg.DecodeCkptRec(ck.buf)
	if err != nil || !rec.Base || len(rec.Blocks) != d.blockTab.n {
		t.Fatalf("the compacted record decodes as base %v with %d blocks (the tables hold %d), err %v", rec.Base, len(rec.Blocks), d.blockTab.n, err)
	}
}
