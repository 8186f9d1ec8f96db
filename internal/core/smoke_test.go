package core

import (
	"bytes"
	"testing"

	"aru/internal/disk"
	"aru/internal/seg"
)

// testLayout returns a small layout for unit tests: 1 KB blocks, 8 KB
// segments, n segments.
func testLayout(n int) seg.Layout {
	return seg.Layout{
		BlockSize: 1024,
		SegBytes:  8192,
		NumSegs:   n,
		MaxBlocks: 4096,
		MaxLists:  1024,
	}
}

// newTestLLD formats a fresh in-memory disk and returns the LLD plus
// its device. The test fails if it ends holding a Snapshot handle of
// the engine (noOpenSnapshots).
func newTestLLD(t *testing.T, p Params) (*LLD, *disk.Sim) {
	t.Helper()
	if p.Layout.BlockSize == 0 {
		p.Layout = testLayout(64)
	}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	t.Cleanup(func() { noOpenSnapshots(t, d) })
	return d, dev
}

// noOpenSnapshots fails t if d has a Snapshot handle not yet released:
// a leaked handle pins an epoch, and everything it retired, forever.
func noOpenSnapshots(t *testing.T, d *LLD) {
	t.Helper()
	if n := d.OpenSnapshots(); n != 0 {
		t.Errorf("%d snapshot handles leaked", n)
	}
}

// retireOpenSegment retires d's open segment as a full one would be: a
// durability point leaves the segment open for more chunks, and while it
// is open its blocks are read from its builder, not from the cache or the
// device.
func retireOpenSegment(t *testing.T, d *LLD) {
	t.Helper()
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.retireSeg(); err != nil {
		t.Fatalf("retiring the open segment: %v", err)
	}
	d.publishLocked()
}

// readOnce serves one read on d: write-allocation into the cache starts
// with the engine's first read (cacheAdopt).
func readOnce(t *testing.T, d *LLD, b BlockID) {
	t.Helper()
	if err := d.Read(0, b, make([]byte, d.BlockSize())); err != nil {
		t.Fatalf("priming read of block %d: %v", b, err)
	}
}

// lockedStats reads d.stats, the counters written under d.mu, holding
// it: Stats serves them as of the last publish.
func lockedStats(d *LLD) Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// fill returns a block-sized buffer filled with b.
func fill(d *LLD, b byte) []byte {
	buf := make([]byte, d.BlockSize())
	for i := range buf {
		buf[i] = b
	}
	return buf
}

func TestSmokeSimpleOps(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	lst, err := d.NewList(0)
	if err != nil {
		t.Fatalf("NewList: %v", err)
	}
	b1, err := d.NewBlock(0, lst, NilBlock)
	if err != nil {
		t.Fatalf("NewBlock: %v", err)
	}
	b2, err := d.NewBlock(0, lst, b1)
	if err != nil {
		t.Fatalf("NewBlock after %d: %v", b1, err)
	}
	if err := d.Write(0, b1, fill(d, 0xaa)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := d.Write(0, b2, fill(d, 0xbb)); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make([]byte, d.BlockSize())
	if err := d.Read(0, b1, got); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if !bytes.Equal(got, fill(d, 0xaa)) {
		t.Fatalf("Read b1: got %x... want aa", got[0])
	}
	order, err := d.ListBlocks(0, lst)
	if err != nil {
		t.Fatalf("ListBlocks: %v", err)
	}
	if len(order) != 2 || order[0] != b1 || order[1] != b2 {
		t.Fatalf("list order = %v, want [%d %d]", order, b1, b2)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatalf("VerifyInternal: %v", err)
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	if err := d.Read(0, b2, got); err != nil {
		t.Fatalf("Read after flush: %v", err)
	}
	if !bytes.Equal(got, fill(d, 0xbb)) {
		t.Fatalf("Read b2 after flush: got %x... want bb", got[0])
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatalf("VerifyInternal after flush: %v", err)
	}
}

func TestSmokeARUCommitAndReopen(t *testing.T) {
	p := Params{Layout: testLayout(64)}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	lst, _ := d.NewList(0)

	a, err := d.BeginARU()
	if err != nil {
		t.Fatalf("BeginARU: %v", err)
	}
	b1, err := d.NewBlock(a, lst, NilBlock)
	if err != nil {
		t.Fatalf("NewBlock in ARU: %v", err)
	}
	if err := d.Write(a, b1, fill(d, 0x11)); err != nil {
		t.Fatalf("Write in ARU: %v", err)
	}
	// Isolation: the committed view does not see the insertion.
	if blocks, _ := d.ListBlocks(0, lst); len(blocks) != 0 {
		t.Fatalf("committed view sees uncommitted insertion: %v", blocks)
	}
	// The ARU's own view does.
	if blocks, _ := d.ListBlocks(a, lst); len(blocks) != 1 || blocks[0] != b1 {
		t.Fatalf("ARU view = %v, want [%d]", nil, b1)
	}
	if err := d.EndARU(a); err != nil {
		t.Fatalf("EndARU: %v", err)
	}
	if blocks, _ := d.ListBlocks(0, lst); len(blocks) != 1 || blocks[0] != b1 {
		t.Fatalf("after commit, committed view = %v, want [%d]", blocks, b1)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	d2, err := Open(dev, Params{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	got := make([]byte, d2.BlockSize())
	if err := d2.Read(0, b1, got); err != nil {
		t.Fatalf("Read after reopen: %v", err)
	}
	if !bytes.Equal(got, fill(d2, 0x11)) {
		t.Fatalf("data lost across reopen")
	}
	if blocks, _ := d2.ListBlocks(0, lst); len(blocks) != 1 || blocks[0] != b1 {
		t.Fatalf("list lost across reopen: %v", blocks)
	}
	if err := d2.VerifyInternal(); err != nil {
		t.Fatalf("VerifyInternal after reopen: %v", err)
	}
}

func TestSmokeARUAbort(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	lst, _ := d.NewList(0)
	b0, _ := d.NewBlock(0, lst, NilBlock)
	if err := d.Write(0, b0, fill(d, 0x01)); err != nil {
		t.Fatal(err)
	}

	a, _ := d.BeginARU()
	if err := d.Write(a, b0, fill(d, 0x02)); err != nil {
		t.Fatalf("shadow write: %v", err)
	}
	bNew, err := d.NewBlock(a, lst, b0)
	if err != nil {
		t.Fatalf("NewBlock in ARU: %v", err)
	}
	if err := d.AbortARU(a); err != nil {
		t.Fatalf("AbortARU: %v", err)
	}
	got := make([]byte, d.BlockSize())
	if err := d.Read(0, b0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x01 {
		t.Fatalf("aborted write leaked into committed state: %x", got[0])
	}
	if blocks, _ := d.ListBlocks(0, lst); len(blocks) != 1 {
		t.Fatalf("aborted insertion leaked: %v", blocks)
	}
	// The allocated block remains allocated (committed-state
	// allocation) until the consistency check frees it.
	if n := d.VersionCount(bNew); n == 0 {
		t.Fatalf("aborted ARU's allocation should remain until swept")
	}
	freed, err := d.CheckDisk()
	if err != nil {
		t.Fatalf("CheckDisk: %v", err)
	}
	if freed != 1 {
		t.Fatalf("CheckDisk freed %d blocks, want 1", freed)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

func TestSmokeCrashRecoveryAtomicity(t *testing.T) {
	p := Params{Layout: testLayout(64)}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	lst, _ := d.NewList(0)
	b0, _ := d.NewBlock(0, lst, NilBlock)
	if err := d.Write(0, b0, fill(d, 0x01)); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	// Committed-but-unflushed ARU: must survive via the log once the
	// segment holding its commit record is written. Here we crash
	// BEFORE any further flush, so the ARU's commit record is not
	// durable: recovery must roll it back entirely.
	a, _ := d.BeginARU()
	if err := d.Write(a, b0, fill(d, 0x02)); err != nil {
		t.Fatal(err)
	}
	if _, err := d.NewBlock(a, lst, b0); err != nil {
		t.Fatal(err)
	}
	if err := d.EndARU(a); err != nil {
		t.Fatal(err)
	}
	// Simulate power loss: reopen from the current image without
	// flushing.
	img := dev.Image()
	d2, err := Open(dev.Reopen(img), Params{})
	if err != nil {
		t.Fatalf("Open after crash: %v", err)
	}
	got := make([]byte, d2.BlockSize())
	if err := d2.Read(0, b0, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x01 {
		t.Fatalf("unflushed commit became persistent or corrupted data: %x", got[0])
	}
	blocks, err := d2.ListBlocks(0, lst)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 || blocks[0] != b0 {
		t.Fatalf("partial ARU recovered: %v", blocks)
	}
	if err := d2.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

func TestSmokeOldVariant(t *testing.T) {
	d, _ := newTestLLD(t, Params{Variant: VariantOld})
	lst, _ := d.NewList(0)
	a, err := d.BeginARU()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.BeginARU(); err == nil {
		t.Fatalf("sequential variant allowed two open ARUs")
	}
	b1, err := d.NewBlock(a, lst, NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(a, b1, fill(d, 0x77)); err != nil {
		t.Fatal(err)
	}
	if err := d.AbortARU(a); err != ErrAbortUnsupported {
		t.Fatalf("AbortARU on old variant: %v, want ErrAbortUnsupported", err)
	}
	if err := d.EndARU(a); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, d.BlockSize())
	if err := d.Read(0, b1, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0x77 {
		t.Fatalf("old-variant data lost: %x", got[0])
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}
