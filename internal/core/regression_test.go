package core

// Regression tests for specific failure modes found during development
// by the crash-sweep property tests. Each reproduces the scenario
// deterministically so the bug class stays documented even if the
// random sweeps change.

import (
	"errors"
	"math/rand"
	"testing"

	"aru/internal/disk"
)

// TestRegressionUnitNeverSplitsAcrossSeal reproduces the split-unit
// bug: an ARU's buffered data used to materialize in a *later* segment
// than its commit record, so a crash between the two segments recovered
// the commit (list links) without the data. With the group-committed
// seal, data and commit always share one atomic segment.
func TestRegressionUnitNeverSplitsAcrossSeal(t *testing.T) {
	p := Params{Layout: testLayout(96)}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	ctr, _ := d.NewList(0)
	counter, _ := d.NewBlock(0, ctr, NilBlock)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	// Several ARUs in a row, each writing the shared counter and its
	// own list; tiny segments force seals at many interleavings. After
	// every possible crash point, a recovered ARU's list implies its
	// counter value is recovered too.
	var lists []ListID
	for k := 1; k <= 8; k++ {
		a, _ := d.BeginARU()
		l, err := d.NewList(a)
		if err != nil {
			t.Fatal(err)
		}
		lists = append(lists, l)
		for j := 0; j < 3; j++ {
			b, err := d.NewBlock(a, l, NilBlock)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Write(a, b, fill(d, byte(k))); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Write(a, counter, fill(d, byte(k))); err != nil {
			t.Fatal(err)
		}
		if err := d.EndARU(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	total := dev.Stats().Writes

	for crash := int64(1); crash <= total; crash++ {
		dev := disk.NewMem(p.Layout.DiskBytes())
		dev.SetFaultPlan(disk.FaultPlan{CrashAfterWrites: crash, TornSectors: -1})
		d, err := Format(dev, p)
		if err != nil {
			continue
		}
		runRegressionWorkload(d)
		if !dev.Crashed() {
			continue
		}
		d2, err := Open(dev.Reopen(dev.Image()), Params{})
		if err != nil {
			continue // crash inside Format
		}
		buf := make([]byte, d2.BlockSize())
		committed := 0
		for k := 1; k <= 8; k++ {
			blocks, err := d2.ListBlocks(0, ListID(k+1)) // lists 2..9 by allocation order
			if err == nil && len(blocks) == 3 {
				committed = k
			}
		}
		if committed > 0 {
			if err := d2.Read(0, 1, buf); err != nil { // counter is block 1
				t.Fatalf("crash %d: counter unreadable: %v", crash, err)
			}
			if int(buf[0]) < committed {
				t.Fatalf("crash %d: ARU %d's links recovered without its counter write (counter=%d)",
					crash, committed, buf[0])
			}
		}
	}
}

// runRegressionWorkload repeats the fixed workload of the test above,
// swallowing the injected power failure.
func runRegressionWorkload(d *LLD) {
	ctr, err := d.NewList(0)
	if err != nil {
		return
	}
	counter, err := d.NewBlock(0, ctr, NilBlock)
	if err != nil {
		return
	}
	if err := d.Flush(); err != nil {
		return
	}
	buf := make([]byte, d.BlockSize())
	for k := 1; k <= 8; k++ {
		a, err := d.BeginARU()
		if err != nil {
			return
		}
		l, err := d.NewList(a)
		if err != nil {
			return
		}
		_ = l
		for j := 0; j < 3; j++ {
			b, err := d.NewBlock(a, l, NilBlock)
			if err != nil {
				return
			}
			for i := range buf {
				buf[i] = byte(k)
			}
			if err := d.Write(a, b, buf); err != nil {
				return
			}
		}
		for i := range buf {
			buf[i] = byte(k)
		}
		if err := d.Write(a, counter, buf); err != nil {
			return
		}
		if err := d.EndARU(a); err != nil {
			return
		}
	}
	_ = d.Flush()
	_ = counter
}

// TestRegressionStashPreservesPendingVersion reproduces the lost
// pre-unit version: a gated write used to overwrite a committed-but-
// pending buffer in place, so a flush taken while the gating unit was
// still open could persist the earlier unit's commit without its data.
// The stash must keep the earlier version recoverable.
func TestRegressionStashPreservesPendingVersion(t *testing.T) {
	p := Params{Layout: testLayout(64), Variant: VariantOld}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	lst, _ := d.NewList(0)
	b, _ := d.NewBlock(0, lst, NilBlock)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	// v1: a simple (immediately committed) write — not yet flushed.
	if err := d.Write(0, b, fill(d, 0xA1)); err != nil {
		t.Fatal(err)
	}
	// v2: a sequential-variant ARU overwrites it in the committed
	// state, gated until its commit record is logged.
	a, _ := d.BeginARU()
	if err := d.Write(a, b, fill(d, 0xB2)); err != nil {
		t.Fatal(err)
	}
	// Flush while the ARU is open: the segment must carry v1 (merged
	// stream) alongside the gated v2, or v1 is lost.
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	// Crash before EndARU: recovery must see v1, neither the old
	// contents nor the uncommitted v2.
	d2, err := Open(dev.Reopen(dev.Image()), Params{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d2.BlockSize())
	if err := d2.Read(0, b, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xA1 {
		t.Fatalf("pending simple write lost under a gated overwrite: %#x", buf[0])
	}
}

// TestRegressionRecoveryAppliesWritesByTimestamp reproduces the
// log-order bug: a later unit's committed version can be materialized
// at an earlier log position than the commit record that applies an
// earlier unit's buffered write; recovery replaying in pure log order
// resurrected the older value.
func TestRegressionRecoveryAppliesWritesByTimestamp(t *testing.T) {
	p := Params{Layout: testLayout(64), Variant: VariantOld}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	lst, _ := d.NewList(0)
	b, _ := d.NewBlock(0, lst, NilBlock)

	// v1 inside an ARU, materialized (tagged) by a flush taken while
	// the ARU is still open…
	a, _ := d.BeginARU()
	if err := d.Write(a, b, fill(d, 0xC1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	// …then the ARU commits (commit record still pending), and a later
	// simple write produces v2.
	if err := d.EndARU(a); err != nil {
		t.Fatal(err)
	}
	if err := d.Write(0, b, fill(d, 0xD2)); err != nil {
		t.Fatal(err)
	}
	// The next segment carries v2's entry *before* the commit record
	// that applies v1.
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dev.Reopen(dev.Image()), Params{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d2.BlockSize())
	if err := d2.Read(0, b, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0xD2 {
		t.Fatalf("recovery resurrected the older write: %#x, want 0xD2", buf[0])
	}
}

// TestFlushOnNearlyFullLogIsNeverVacuous: the cleaner runs inside
// ensureRoom, before the caller buffers its write, and on a log it cannot
// make room in it can leave no segment open — or the open one part full of
// relocations. ensureRoom must look again: a write buffered with no open
// segment is one no seal can reach, and the Flush after it would succeed
// without having written it. (Found by aru-crashcheck on a 14-segment log
// once durability points stopped retiring segments and the scripted
// workloads could run a log that full.) Blocks are overwritten at random
// on logs of a few segments, each write followed by a Flush; whatever a
// Flush acknowledged must be what a crash right after it recovers.
func TestFlushOnNearlyFullLogIsNeverVacuous(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := Params{Layout: testLayout(6 + int(seed%4)), CheckpointEvery: 4, CleanerLowWater: 2, CacheBlocks: -1}
		dev := disk.NewMem(p.Layout.DiskBytes())
		d, err := Format(dev, p)
		if err != nil {
			t.Fatal(err)
		}
		lst, _ := d.NewList(0)
		var ids []BlockID
		vers := map[BlockID]byte{}
		// Up to two thirds of the log's blocks live, fewer if the log says
		// it is full before: the cleaner always has work and little room
		// to do it in.
		for n := p.Layout.NumSegs * p.Layout.BlocksPerSeg() * 2 / 3; n > 0; n-- {
			b, err := d.NewBlock(0, lst, NilBlock)
			if err == nil {
				err = d.Write(0, b, fill(d, 1))
			}
			if errors.Is(err, ErrNoSpace) {
				break
			}
			if err != nil {
				t.Fatalf("seed %d: populating: %v", seed, err)
			}
			ids, vers[b] = append(ids, b), 1
		}
		if err := d.VerifyInternal(); err != nil {
			t.Fatalf("seed %d: after populating: %v", seed, err)
		}
		noSpace := 0
		for step := 0; step < 300; step++ {
			b := ids[rng.Intn(len(ids))]
			v := vers[b] + 1
			if err := d.Write(0, b, fill(d, v)); errors.Is(err, ErrNoSpace) {
				noSpace++
				continue
			} else if err != nil {
				t.Fatalf("seed %d step %d: write: %v", seed, step, err)
			}
			if err := d.VerifyInternal(); err != nil {
				t.Fatalf("seed %d step %d: after the write: %v", seed, step, err)
			}
			if err := d.Flush(); err != nil {
				t.Fatalf("seed %d step %d: flush: %v", seed, step, err)
			}
			vers[b] = v
			if step%10 != 0 {
				continue
			}
			r, err := Open(disk.FromImage(dev.Image(), disk.Geometry{}), Params{CacheBlocks: -1})
			if err != nil {
				t.Fatalf("seed %d step %d: recovery: %v", seed, step, err)
			}
			buf := make([]byte, d.BlockSize())
			for _, id := range ids {
				if err := r.Read(0, id, buf); err != nil || buf[0] != vers[id] || buf[len(buf)-1] != vers[id] {
					t.Fatalf("seed %d step %d: block %d recovers as %#x (%v), its flush acknowledged %#x", seed, step, id, buf[0], err, vers[id])
				}
			}
		}
		if noSpace == 300 {
			t.Fatalf("seed %d: every write found the log full", seed)
		}
	}
}
