package core

import (
	"bytes"
	"math/rand"
	"testing"

	"aru/internal/disk"
)

// TestSoakMultiGenerationCrashes runs many generations of
// workload→crash→recover on one disk image. Each generation appends to
// the log left by its predecessors, so checkpoint alternation, segment
// sequence continuity, identifier continuation and leak sweeping are
// exercised across recoveries — not just once.
func TestSoakMultiGenerationCrashes(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping soak test in -short mode")
	}
	// The workload only ever allocates: 25 generations leave some 900
	// durable blocks, which must not fill the disk (7 blocks a segment).
	layout := testLayout(192)
	rng := rand.New(rand.NewSource(19960527))

	img := func() []byte {
		dev := disk.NewMem(layout.DiskBytes())
		d, err := Format(dev, Params{Layout: layout, CheckpointEvery: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		return dev.Image()
	}()

	// oracle tracks what must be durable: blocks whose ARU was
	// committed and flushed, with their payloads.
	durable := make(map[BlockID]byte)
	var durableLists []ListID

	for gen := 0; gen < 25; gen++ {
		dev := disk.NewMem(layout.DiskBytes()).Reopen(img)
		crashAt := dev.Stats().Writes + int64(rng.Intn(40)+1)
		dev.SetFaultPlan(disk.FaultPlan{
			CrashAfterWrites: crashAt,
			TornSectors:      rng.Intn(9) - 1,
		})

		d, err := Open(dev, Params{CheckpointEvery: 3})
		if err != nil {
			t.Fatalf("gen %d: recovery: %v", gen, err)
		}
		if err := d.VerifyInternal(); err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		// Everything previously durable must still be there, intact.
		buf := make([]byte, d.BlockSize())
		for b, pat := range durable {
			if err := d.Read(0, b, buf); err != nil {
				t.Fatalf("gen %d: durable block %d lost: %v", gen, b, err)
			}
			if !bytes.Equal(buf, bytes.Repeat([]byte{pat}, len(buf))) {
				t.Fatalf("gen %d: durable block %d corrupted (%#x, want %#x)", gen, b, buf[0], pat)
			}
		}
		for _, l := range durableLists {
			if _, err := d.ListBlocks(0, l); err != nil {
				t.Fatalf("gen %d: durable list %d lost: %v", gen, l, err)
			}
		}

		// New workload for this generation; some of it will survive.
		type pendingUnit struct {
			list   ListID
			blocks []BlockID
			pat    byte
		}
		var flushedUnits []pendingUnit
		func() {
			var unflushed []pendingUnit
			for i := 0; ; i++ {
				a, err := d.BeginARU()
				if err != nil {
					return
				}
				u := pendingUnit{pat: byte(gen*16+i) | 1}
				if u.list, err = d.NewList(a); err != nil {
					return
				}
				for j := 0; j < rng.Intn(3)+1; j++ {
					b, err := d.NewBlock(a, u.list, NilBlock)
					if err != nil {
						return
					}
					if err := d.Write(a, b, fill(d, u.pat)); err != nil {
						return
					}
					u.blocks = append(u.blocks, b)
				}
				if rng.Intn(6) == 0 {
					if err := d.AbortARU(a); err != nil {
						return
					}
					continue
				}
				if err := d.EndARU(a); err != nil {
					return
				}
				unflushed = append(unflushed, u)
				if rng.Intn(3) == 0 {
					if err := d.Flush(); err != nil {
						return
					}
					flushedUnits = append(flushedUnits, unflushed...)
					unflushed = nil
				}
			}
		}()
		if !dev.Crashed() {
			t.Fatalf("gen %d: workload outlived the fault plan", gen)
		}
		// Flushed units are durable for all later generations.
		for _, u := range flushedUnits {
			for _, b := range u.blocks {
				durable[b] = u.pat
			}
			durableLists = append(durableLists, u.list)
		}
		img = dev.Image()
	}

	// Final full recovery must be clean and hold everything durable.
	dev := disk.NewMem(layout.DiskBytes()).Reopen(img)
	d, err := Open(dev, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d.BlockSize())
	for b, pat := range durable {
		if err := d.Read(0, b, buf); err != nil {
			t.Fatalf("final: durable block %d lost: %v", b, err)
		}
		if buf[0] != pat {
			t.Fatalf("final: durable block %d corrupted", b)
		}
	}
	if len(durable) == 0 {
		t.Fatal("soak never made anything durable — vacuous run")
	}
}

// TestReplayWindowCountsTowardCheckpoint: a mount counts its replay window
// toward the next automatic checkpoint, so lives too short to retire
// CheckpointEvery segments before their crash still checkpoint. Were the
// count to start at zero on every mount, each generation's window would be
// the last one's plus what it retired; and since a segment above the
// checkpoint is neither freeable nor a cleaner victim, a nearly empty disk
// would run out of space.
func TestReplayWindowCountsTowardCheckpoint(t *testing.T) {
	const every, perGen, gens = 4, 2, 40
	p := Params{Layout: testLayout(48), CheckpointEvery: every}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	lst, err := d.NewList(0)
	if err != nil {
		t.Fatal(err)
	}
	var blocks []BlockID
	for i := 0; i < 4; i++ {
		b, err := d.NewBlock(0, lst, NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < gens; gen++ {
		// A crash: the image as the device holds it, without a Close.
		dev = disk.FromImage(dev.Image(), disk.Geometry{})
		var rpt RecoveryReport
		if d, rpt, err = OpenReport(dev, p); err != nil {
			t.Fatalf("gen %d: %v", gen, err)
		}
		if rpt.SegmentsReplayed > every+perGen {
			t.Fatalf("gen %d: mount replayed %d segments, want at most CheckpointEvery (%d) + one generation's retirements (%d)",
				gen, rpt.SegmentsReplayed, every, perGen)
		}
		// One durable chunk per write, until perGen segments have filled.
		start := lockedStats(d).SegmentsWritten
		for i := 0; lockedStats(d).SegmentsWritten-start <= perGen; i++ {
			if err := d.Write(0, blocks[i%len(blocks)], fill(d, byte(gen+i))); err != nil {
				t.Fatalf("gen %d: write: %v", gen, err)
			}
			if err := d.Flush(); err != nil {
				t.Fatalf("gen %d: flush: %v", gen, err)
			}
		}
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}
