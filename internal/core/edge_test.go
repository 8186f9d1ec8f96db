package core

import (
	"errors"
	"reflect"
	"testing"

	"aru/internal/disk"
)

// TestOldVariantListOps exercises the sequential build's in-place list
// manipulation across flushes and recovery.
func TestOldVariantListOps(t *testing.T) {
	p := Params{Layout: testLayout(64), Variant: VariantOld}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	lst, _ := d.NewList(0)

	a, _ := d.BeginARU()
	b1, _ := d.NewBlock(a, lst, NilBlock)
	b2, _ := d.NewBlock(a, lst, b1)
	b3, _ := d.NewBlock(a, lst, b2)
	if err := d.Write(a, b2, fill(d, 0x22)); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteBlock(a, b1); err != nil {
		t.Fatal(err)
	}
	if err := d.EndARU(a); err != nil {
		t.Fatal(err)
	}
	got, _ := d.ListBlocks(0, lst)
	if len(got) != 2 || got[0] != b2 || got[1] != b3 {
		t.Fatalf("list = %v, want [%d %d]", got, b2, b3)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dev, Params{})
	if err != nil {
		t.Fatal(err)
	}
	got, _ = d2.ListBlocks(0, lst)
	if len(got) != 2 || got[0] != b2 || got[1] != b3 {
		t.Fatalf("recovered list = %v", got)
	}
	buf := make([]byte, d2.BlockSize())
	if err := d2.Read(0, b2, buf); err != nil || buf[0] != 0x22 {
		t.Fatalf("recovered contents: %v %#x", err, buf[0])
	}
}

// TestShadowInsertAfterShadowBlock: inside one ARU, a chain of inserts
// where each predecessor is itself a shadow-only insertion.
func TestShadowInsertAfterShadowBlock(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	lst, _ := d.NewList(0)
	a, _ := d.BeginARU()
	b1, err := d.NewBlock(a, lst, NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := d.NewBlock(a, lst, b1) // pred exists only in shadow
	if err != nil {
		t.Fatal(err)
	}
	b3, err := d.NewBlock(a, lst, b2)
	if err != nil {
		t.Fatal(err)
	}
	// Delete the middle one, still inside the ARU.
	if err := d.DeleteBlock(a, b2); err != nil {
		t.Fatal(err)
	}
	if err := d.EndARU(a); err != nil {
		t.Fatal(err)
	}
	got, _ := d.ListBlocks(0, lst)
	if len(got) != 2 || got[0] != b1 || got[1] != b3 {
		t.Fatalf("list = %v, want [%d %d]", got, b1, b3)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteListWithConcurrentInsert pins down the documented merge
// semantics: an ARU's DeleteList replayed at commit removes members a
// concurrently committed ARU added in the meantime.
func TestDeleteListWithConcurrentInsert(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	lst, _ := d.NewList(0)
	if _, err := d.NewBlock(0, lst, NilBlock); err != nil {
		t.Fatal(err)
	}

	deleter, _ := d.BeginARU()
	if err := d.DeleteList(deleter, lst); err != nil {
		t.Fatal(err)
	}
	// A second ARU inserts into the same list and commits first.
	inserter, _ := d.BeginARU()
	nb, err := d.NewBlock(inserter, lst, NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EndARU(inserter); err != nil {
		t.Fatal(err)
	}
	// Now the deleter commits: the replay deletes the whole committed
	// membership, including the racing insertion.
	if err := d.EndARU(deleter); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ListBlocks(0, lst); !errors.Is(err, ErrNoSuchList) {
		t.Fatalf("list survived DeleteList: %v", err)
	}
	buf := make([]byte, d.BlockSize())
	if err := d.Read(0, nb, buf); !errors.Is(err, ErrNoSuchBlock) {
		t.Fatalf("racing insertion survived the list deletion: %v", err)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteBlockReplayAfterListGone: an ARU deletes a block of a list
// that another committed unit has deleted wholesale; the replay must
// fall back gracefully.
func TestDeleteBlockReplayAfterListGone(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	lst, _ := d.NewList(0)
	b, _ := d.NewBlock(0, lst, NilBlock)

	a, _ := d.BeginARU()
	if err := d.DeleteBlock(a, b); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteList(0, lst); err != nil { // simple op wins the race
		t.Fatal(err)
	}
	if err := d.EndARU(a); err != nil {
		t.Fatalf("replay after racing delete-list: %v", err)
	}
	if d.Stats().MergeFallbacks == 0 {
		t.Fatal("fallback not counted")
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestReadSemanticsOnOldVariant: the visibility knob composes with the
// sequential build (whose in-ARU updates are committed-state updates,
// so even ReadCommitted sees them — there is no shadow state to hide).
func TestReadSemanticsOnOldVariant(t *testing.T) {
	for _, sem := range []ReadSemantics{ReadOwnShadow, ReadAnyShadow, ReadCommitted} {
		d, _ := newTestLLD(t, Params{Layout: testLayout(48), Variant: VariantOld, ReadSemantics: sem})
		lst, _ := d.NewList(0)
		b, _ := d.NewBlock(0, lst, NilBlock)
		if err := d.Write(0, b, fill(d, 0x01)); err != nil {
			t.Fatal(err)
		}
		a, _ := d.BeginARU()
		if err := d.Write(a, b, fill(d, 0x02)); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, d.BlockSize())
		if err := d.Read(0, b, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 0x02 {
			t.Fatalf("sem %v: sequential build hid an in-place update: %#x", sem, buf[0])
		}
		if err := d.EndARU(a); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCheckpointRefusedWithOpenARU: the interlock that keeps logged unit
// entries inside the replay window refuses only beside units that logged
// some. Before EndARU a VariantNew unit has logged its allocation alone,
// which recovery applies whatever the unit's fate, so a checkpoint beside
// it succeeds: a crash before EndARU recovers without the unit (the
// mount's sweep frees its block), one after EndARU and Flush with it. A
// VariantOld unit logs its operations as they run, and the checkpoint
// still refuses.
func TestCheckpointRefusedWithOpenARU(t *testing.T) {
	t.Run("new", func(t *testing.T) {
		d, dev := newTestLLD(t, Params{})
		lst, _ := d.NewList(0)
		old, _ := d.NewBlock(0, lst, NilBlock)
		if err := d.Write(0, old, fill(d, 1)); err != nil {
			t.Fatal(err)
		}
		a, _ := d.BeginARU()
		nb, err := d.NewBlock(a, lst, old)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(a, nb, fill(d, 2)); err != nil {
			t.Fatal(err)
		}
		if err := d.Write(a, old, fill(d, 3)); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatalf("checkpoint beside a VariantNew unit: %v", err)
		}
		recovered := func(when string, want diskState, leaked int) {
			t.Helper()
			d2, rpt, err := OpenReport(dev.Reopen(dev.Image()), Params{})
			if err != nil {
				t.Fatal(err)
			}
			defer d2.Close()
			if rpt.LeakedFreed != leaked {
				t.Fatalf("%s: the mount's sweep freed %d blocks, want %d", when, rpt.LeakedFreed, leaked)
			}
			if got := logicalState(t, d2); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: recovered %v, want %v", when, got, want)
			}
			if err := d2.VerifyInternal(); err != nil {
				t.Fatal(err)
			}
		}
		recovered("crash before EndARU", diskState{lst: {fill(d, 1)}}, 1)
		if err := d.EndARU(a); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		recovered("crash after EndARU and Flush", diskState{lst: {fill(d, 3), fill(d, 2)}}, 0)
	})
	t.Run("old", func(t *testing.T) {
		d, dev := newTestLLD(t, Params{Variant: VariantOld})
		a, _ := d.BeginARU()
		if err := d.Checkpoint(); !errors.Is(err, ErrARUActive) {
			t.Fatalf("checkpoint with a VariantOld unit open: %v, want ErrARUActive", err)
		}
		if err := d.EndARU(a); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatalf("checkpoint after commit: %v", err)
		}
		// Recovery straight from the checkpoint (no replay) works.
		d2, rpt, err := OpenReport(dev.Reopen(dev.Image()), Params{})
		if err != nil {
			t.Fatal(err)
		}
		if rpt.SegmentsReplayed != 0 {
			t.Fatalf("replayed %d segments despite fresh checkpoint", rpt.SegmentsReplayed)
		}
		if err := d2.VerifyInternal(); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCloseIsCheckpointed: Close must leave a disk that recovers with
// zero replay and zero leaks.
func TestCloseIsCheckpointed(t *testing.T) {
	p := Params{Layout: testLayout(48)}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	lst, _ := d.NewList(0)
	for i := 0; i < 5; i++ {
		b, err := d.NewBlock(0, lst, NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(0, b, fill(d, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	_, rpt, err := OpenReport(dev, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if rpt.SegmentsReplayed != 0 || rpt.LeakedFreed != 0 {
		t.Fatalf("clean close left work for recovery: %+v", rpt)
	}
}

// TestAbortARUDropsLinkLogButKeepsAllocations double-checks the exact
// §3.3 abort semantics once more with list structure involved.
func TestAbortARUDropsLinkLogButKeepsAllocations(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	lst, _ := d.NewList(0)
	keep, _ := d.NewBlock(0, lst, NilBlock)

	a, _ := d.BeginARU()
	if err := d.DeleteBlock(a, keep); err != nil {
		t.Fatal(err)
	}
	alloc, err := d.NewBlock(a, lst, NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	newList, err := d.NewList(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.AbortARU(a); err != nil {
		t.Fatal(err)
	}
	// The deletion is undone; the allocations remain (committed state).
	got, _ := d.ListBlocks(0, lst)
	if len(got) != 1 || got[0] != keep {
		t.Fatalf("aborted delete leaked: %v", got)
	}
	if n := d.VersionCount(alloc); n == 0 {
		t.Fatal("aborted ARU's block allocation vanished before the sweep")
	}
	if _, err := d.ListBlocks(0, newList); err != nil {
		t.Fatalf("aborted ARU's list allocation vanished: %v", err)
	}
	freed, err := d.CheckDisk()
	if err != nil {
		t.Fatal(err)
	}
	if freed != 1 {
		t.Fatalf("sweep freed %d blocks, want 1", freed)
	}
}
