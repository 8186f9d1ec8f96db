package core

import (
	"errors"
	"testing"
)

// setupSemantics builds a disk with a written block, a pending simple
// write, and two ARUs each holding a shadow version of it.
func setupSemantics(t *testing.T, sem ReadSemantics) (*LLD, BlockID, ARUID, ARUID) {
	t.Helper()
	d, _ := newTestLLD(t, Params{Layout: testLayout(64), ReadSemantics: sem})
	lst, _ := d.NewList(0)
	b, _ := d.NewBlock(0, lst, NilBlock)
	if err := d.Write(0, b, fill(d, 0x10)); err != nil { // committed
		t.Fatal(err)
	}
	a1, _ := d.BeginARU()
	a2, _ := d.BeginARU()
	if err := d.Write(a1, b, fill(d, 0x21)); err != nil { // shadow of a1
		t.Fatal(err)
	}
	if err := d.Write(a2, b, fill(d, 0x22)); err != nil { // shadow of a2 (newest)
		t.Fatal(err)
	}
	return d, b, a1, a2
}

func readByte(t *testing.T, d *LLD, aru ARUID, b BlockID) byte {
	t.Helper()
	buf := make([]byte, d.BlockSize())
	if err := d.Read(aru, b, buf); err != nil {
		t.Fatal(err)
	}
	return buf[0]
}

// TestReadSemanticsOwnShadow: option 3 (the default) — each ARU sees
// its own shadow, simple reads see the committed version.
func TestReadSemanticsOwnShadow(t *testing.T) {
	d, b, a1, a2 := setupSemantics(t, ReadOwnShadow)
	if got := readByte(t, d, a1, b); got != 0x21 {
		t.Errorf("a1 sees %#x, want its own 0x21", got)
	}
	if got := readByte(t, d, a2, b); got != 0x22 {
		t.Errorf("a2 sees %#x, want its own 0x22", got)
	}
	if got := readByte(t, d, 0, b); got != 0x10 {
		t.Errorf("simple read sees %#x, want committed 0x10", got)
	}
}

// TestReadSemanticsAnyShadow: option 1 — every client sees the most
// recent shadow version, committed or not.
func TestReadSemanticsAnyShadow(t *testing.T) {
	d, b, a1, a2 := setupSemantics(t, ReadAnyShadow)
	for _, who := range []ARUID{0, a1, a2} {
		if got := readByte(t, d, who, b); got != 0x22 {
			t.Errorf("client %d sees %#x, want newest shadow 0x22", who, got)
		}
	}
	// Abort the newest writer: its shadow disappears from view.
	if err := d.AbortARU(a2); err != nil {
		t.Fatal(err)
	}
	if got := readByte(t, d, 0, b); got != 0x21 {
		t.Errorf("after abort, simple read sees %#x, want 0x21", got)
	}
}

// TestReadSemanticsCommitted: option 2 — everyone sees the committed
// version until a commit happens.
func TestReadSemanticsCommitted(t *testing.T) {
	d, b, a1, a2 := setupSemantics(t, ReadCommitted)
	for _, who := range []ARUID{0, a1, a2} {
		if got := readByte(t, d, who, b); got != 0x10 {
			t.Errorf("client %d sees %#x, want committed 0x10", who, got)
		}
	}
	if err := d.EndARU(a1); err != nil {
		t.Fatal(err)
	}
	for _, who := range []ARUID{0, a2} {
		if got := readByte(t, d, who, b); got != 0x21 {
			t.Errorf("after commit, client %d sees %#x, want 0x21", who, got)
		}
	}
}

// TestCommitDurable: the unit must survive an immediate crash without
// any explicit Flush.
func TestCommitDurable(t *testing.T) {
	d, dev := newTestLLD(t, Params{Layout: testLayout(64)})
	lst, _ := d.NewList(0)
	a, _ := d.BeginARU()
	b, err := d.NewBlock(a, lst, NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(a, b, fill(d, 0x77)); err != nil {
		t.Fatal(err)
	}
	if err := d.CommitDurable(a); err != nil {
		t.Fatal(err)
	}
	// Power loss right after the call returns.
	d2, err := Open(dev.Reopen(dev.Image()), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if got := readByte(t, d2, 0, b); got != 0x77 {
		t.Fatalf("durably committed data lost: %#x", got)
	}
}

// TestMoveBlockSimple moves a block between lists outside any ARU.
func TestMoveBlockSimple(t *testing.T) {
	d, dev := newTestLLD(t, Params{Layout: testLayout(64)})
	l1, _ := d.NewList(0)
	l2, _ := d.NewList(0)
	b1, _ := d.NewBlock(0, l1, NilBlock)
	b2, _ := d.NewBlock(0, l1, b1)
	anchor, _ := d.NewBlock(0, l2, NilBlock)
	if err := d.Write(0, b2, fill(d, 0x44)); err != nil {
		t.Fatal(err)
	}

	if err := d.MoveBlock(0, b2, l2, anchor); err != nil {
		t.Fatal(err)
	}
	if got, _ := d.ListBlocks(0, l1); len(got) != 1 || got[0] != b1 {
		t.Fatalf("source list = %v", got)
	}
	if got, _ := d.ListBlocks(0, l2); len(got) != 2 || got[0] != anchor || got[1] != b2 {
		t.Fatalf("target list = %v", got)
	}
	if got := readByte(t, d, 0, b2); got != 0x44 {
		t.Fatalf("contents lost in move: %#x", got)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}

	// And it must survive recovery.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dev, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := d2.ListBlocks(0, l2); len(got) != 2 || got[1] != b2 {
		t.Fatalf("recovered target list = %v", got)
	}
}

// TestMoveBlockInARU: the move is invisible until commit and atomic
// across a crash.
func TestMoveBlockInARU(t *testing.T) {
	d, dev := newTestLLD(t, Params{Layout: testLayout(64)})
	l1, _ := d.NewList(0)
	l2, _ := d.NewList(0)
	b, _ := d.NewBlock(0, l1, NilBlock)
	if err := d.Write(0, b, fill(d, 0x55)); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	a, _ := d.BeginARU()
	if err := d.MoveBlock(a, b, l2, NilBlock); err != nil {
		t.Fatal(err)
	}
	// Committed view: still on l1.
	if got, _ := d.ListBlocks(0, l1); len(got) != 1 {
		t.Fatalf("move leaked before commit: l1=%v", got)
	}
	if got, _ := d.ListBlocks(0, l2); len(got) != 0 {
		t.Fatalf("move leaked before commit: l2=%v", got)
	}
	// ARU view: moved.
	if got, _ := d.ListBlocks(a, l2); len(got) != 1 || got[0] != b {
		t.Fatalf("ARU view l2=%v", got)
	}
	if err := d.EndARU(a); err != nil {
		t.Fatal(err)
	}
	if got, _ := d.ListBlocks(0, l2); len(got) != 1 || got[0] != b {
		t.Fatalf("after commit l2=%v", got)
	}

	// Crash with the commit unflushed: the move must vanish entirely.
	d2, err := Open(dev.Reopen(dev.Image()), Params{})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := d2.ListBlocks(0, l1); len(got) != 1 || got[0] != b {
		t.Fatalf("recovered l1=%v, want [%d]", got, b)
	}
	if got, _ := d2.ListBlocks(0, l2); len(got) != 0 {
		t.Fatalf("half a move recovered: l2=%v", got)
	}
	if got := readByte(t, d2, 0, b); got != 0x55 {
		t.Fatalf("contents lost: %#x", got)
	}
	if err := d2.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestMoveBlockErrors covers validation.
func TestMoveBlockErrors(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	l1, _ := d.NewList(0)
	b, _ := d.NewBlock(0, l1, NilBlock)
	if err := d.MoveBlock(0, 999, l1, NilBlock); !errors.Is(err, ErrNoSuchBlock) {
		t.Errorf("move of unallocated block: %v", err)
	}
	if err := d.MoveBlock(0, b, 999, NilBlock); !errors.Is(err, ErrNoSuchList) {
		t.Errorf("move to unallocated list: %v", err)
	}
	if err := d.MoveBlock(0, b, l1, b); !errors.Is(err, ErrNotMember) {
		t.Errorf("move after itself: %v", err)
	}
}
