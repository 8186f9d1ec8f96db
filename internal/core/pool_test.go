package core

import "testing"

// TestFreeListsBoundedAfterBurst drives two bursts past the free lists'
// caps — 200 units open at once, then one snapshot pinned across many
// publishes and segment retirements and released — and checks that
// every free list ends within its cap (VerifyInternal) and that the caps
// are what held them: the ARU-state and snapshot lists end full.
func TestFreeListsBoundedAfterBurst(t *testing.T) {
	d, _ := newTestLLD(t, Params{Layout: testLayout(256)})
	defer d.Close()
	lst, _ := d.NewList(0)
	blocks := make([]BlockID, 8)
	for i := range blocks {
		blocks[i], _ = d.NewBlock(0, lst, NilBlock)
	}

	units := make([]ARUID, 200)
	for i := range units {
		a, err := d.BeginARU()
		if err != nil {
			t.Fatalf("BeginARU %d: %v", i, err)
		}
		if err := d.Write(a, blocks[i%len(blocks)], fill(d, byte(i))); err != nil {
			t.Fatalf("Write in unit %d: %v", i, err)
		}
		units[i] = a
	}
	for _, a := range units {
		if err := d.EndARU(a); err != nil {
			t.Fatalf("EndARU: %v", err)
		}
	}

	h, err := d.AcquireSnapshot()
	if err != nil {
		t.Fatalf("AcquireSnapshot: %v", err)
	}
	before := lockedStats(d)
	for round := 0; round < 24; round++ {
		commitFill(t, d, blocks, byte(round))
		if err := d.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	after := lockedStats(d)
	if p, w := after.EpochsPublished-before.EpochsPublished, after.SegmentsWritten-before.SegmentsWritten; p < 16 || w < 16 {
		t.Fatalf("behind the pin %d epochs were published and %d segments written, want at least 16 of each", p, w)
	}
	h.Release()
	commitFill(t, d, blocks, 1) // publish + purge
	if lockedStats(d).SnapshotsPurged-after.SnapshotsPurged < 16 {
		t.Fatal("the release purged fewer than 16 epochs")
	}

	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if n, m := len(d.freeStates.items), d.freeStates.max; n != m {
		t.Errorf("%d ARU states pooled after 200 units ended, want the cap %d", n, m)
	}
	if n, m := len(d.freeSnaps.items), d.freeSnaps.max; n != m {
		t.Errorf("%d snapshots pooled after the pin's release, want the cap %d", n, m)
	}
}
