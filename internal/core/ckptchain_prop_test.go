package core

import (
	"math/rand"
	"reflect"
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
