package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"aru/internal/disk"
	"aru/internal/seg"
)

// TestTransientWriteErrorRetry: an injected transient device error
// fails the Flush, but the sealed-but-unwritten segment stays in the
// builder and a retry succeeds with nothing lost.
func TestTransientWriteErrorRetry(t *testing.T) {
	p := Params{Layout: testLayout(48)}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	lst, _ := d.NewList(0)
	b, _ := d.NewBlock(0, lst, NilBlock)
	if err := d.Write(0, b, fill(d, 0x66)); err != nil {
		t.Fatal(err)
	}

	// Fail exactly the next device write (the segment of the flush).
	writes := dev.Stats().Writes
	dev.SetFaultPlan(disk.FaultPlan{WriteErrorEvery: writes + 1})
	err = d.Flush()
	if !errors.Is(err, disk.ErrInjected) {
		t.Fatalf("flush with injected fault: %v", err)
	}
	dev.SetFaultPlan(disk.FaultPlan{})
	if err := d.Flush(); err != nil {
		t.Fatalf("retry flush: %v", err)
	}
	buf := make([]byte, d.BlockSize())
	if err := d.Read(0, b, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x66 {
		t.Fatalf("data lost across transient error: %#x", buf[0])
	}
	// And the state is recoverable.
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dev, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Read(0, b, buf); err != nil || buf[0] != 0x66 {
		t.Fatalf("recovery after transient error: %v %#x", err, buf[0])
	}
}

// TestTransientWriteErrorRetryInline is the same contract for the
// inline driver: a device error on the write of a full segment, sealed
// in the middle of a Write, fails that operation only. The entry stays
// queued with its image (so reads keep working), the log continues in
// the next segment, the next durability point writes the segment, and
// nothing is lost across Close/Open.
func TestTransientWriteErrorRetryInline(t *testing.T) {
	p := Params{Layout: testLayout(48)}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	lst, _ := d.NewList(0)
	var (
		blocks []BlockID // written, with payload index+1
		failed BlockID   // allocated by the failing operation, if it got that far
	)
	write := func() error {
		b, err := d.NewBlock(0, lst, NilBlock)
		if err != nil {
			return err
		}
		if err := d.Write(0, b, fill(d, byte(len(blocks)+1))); err != nil {
			failed = b
			return err
		}
		blocks = append(blocks, b)
		return nil
	}

	// Fail exactly the next device write: the first full-segment seal.
	dev.SetFaultPlan(disk.FaultPlan{WriteErrorEvery: dev.Stats().Writes + 1})
	for err = write(); err == nil; err = write() {
		if len(blocks) > 100 {
			t.Fatal("no segment filled up")
		}
	}
	if !errors.Is(err, disk.ErrInjected) {
		t.Fatalf("write with injected fault: %v", err)
	}
	dev.SetFaultPlan(disk.FaultPlan{})
	d.mu.Lock()
	if len(d.sealed) != 1 || d.sealed[0].written || d.sealed[0].img == nil || d.heldBuilder(d.sealed[0].idx) != d.sealed[0].bld {
		t.Errorf("after the failed write: queue %v, want one unwritten entry holding its retired segment's image", d.sealed)
	}
	d.mu.Unlock()

	// The log carries on past the failed segment, and the blocks sealed
	// into it read from the retained image.
	if failed == NilBlock {
		if failed, err = d.NewBlock(0, lst, NilBlock); err != nil {
			t.Fatalf("allocation after the failed seal: %v", err)
		}
	}
	if err := d.Write(0, failed, fill(d, 0xee)); err != nil {
		t.Fatalf("write after the failed seal: %v", err)
	}
	check := func(d *LLD, when string) {
		t.Helper()
		buf := make([]byte, d.BlockSize())
		for i, b := range blocks {
			if err := d.Read(0, b, buf); err != nil || buf[0] != byte(i+1) {
				t.Fatalf("%s: block %d: %v %#x, want %#x", when, b, err, buf[0], i+1)
			}
		}
		if err := d.Read(0, failed, buf); err != nil || buf[0] != 0xee {
			t.Fatalf("%s: block %d: %v %#x, want 0xee", when, failed, err, buf[0])
		}
	}
	check(d, "before the retry")

	writes := dev.Stats().Writes
	if err := d.Flush(); err != nil {
		t.Fatalf("flush after transient error: %v", err)
	}
	if got := dev.Stats().Writes - writes; got != 2 {
		t.Errorf("flush wrote %d segments, want 2 (the retried one and the open one)", got)
	}
	d.mu.Lock()
	if len(d.sealed) != 0 {
		t.Errorf("queue not drained by the flush: %d entries", len(d.sealed))
	}
	d.mu.Unlock()
	check(d, "after the retry")
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dev, Params{})
	if err != nil {
		t.Fatal(err)
	}
	check(d2, "after reopen")
}

// TestWriteFailureDuringEndARU: if the device dies while EndARU needs a
// seal, the error surfaces and the engine refuses further use only of
// the dead device, without corrupting in-memory invariants.
func TestWriteFailureDuringEndARU(t *testing.T) {
	p := Params{Layout: testLayout(48)}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	lst, _ := d.NewList(0)

	// Open an ARU big enough that its merge forces a seal (segments
	// hold ~6 one-KB blocks in the test layout).
	a, _ := d.BeginARU()
	for i := 0; i < 20; i++ {
		b, err := d.NewBlock(a, lst, NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(a, b, fill(d, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	dev.Crash()
	if err := d.EndARU(a); err == nil {
		// The commit may have fit without a seal; the flush must fail
		// instead.
		if ferr := d.Flush(); ferr == nil {
			t.Fatal("no error surfaced from a dead device")
		}
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatalf("invariants after device death: %v", err)
	}
}

// TestRecoveryFromDeadDeviceFails: Open on a crashed device reports the
// failure instead of hanging or panicking.
func TestRecoveryFromDeadDeviceFails(t *testing.T) {
	p := Params{Layout: testLayout(32)}
	dev := disk.NewMem(p.Layout.DiskBytes())
	if _, err := Format(dev, p); err != nil {
		t.Fatal(err)
	}
	dev.Crash()
	if _, err := Open(dev, Params{}); !errors.Is(err, disk.ErrCrashed) {
		t.Fatalf("open on dead device: %v", err)
	}
}

// TestFormatOnTooSmallDevice covers the size validation.
func TestFormatOnTooSmallDevice(t *testing.T) {
	p := Params{Layout: testLayout(32)}
	dev := disk.NewMem(p.Layout.DiskBytes() / 2)
	if _, err := Format(dev, p); !errors.Is(err, ErrBadParam) {
		t.Fatalf("format on undersized device: %v", err)
	}
}

// TestOpenWithoutSuperblock covers mounting garbage.
func TestOpenWithoutSuperblock(t *testing.T) {
	dev := disk.NewMem(1 << 20)
	if _, err := Open(dev, Params{}); err == nil {
		t.Fatal("opened an unformatted device")
	}
}

// TestRecoveryNeverPanicsOnCorruptImages flips random bits anywhere in
// a valid post-crash image; recovery must always either succeed (if the
// flip hit dead space or was caught by checksums) or fail cleanly —
// never panic, never violate internal invariants when it does succeed.
func TestRecoveryNeverPanicsOnCorruptImages(t *testing.T) {
	layout := testLayout(96)
	dev := disk.NewMem(layout.DiskBytes())
	d, err := Format(dev, Params{Layout: layout, CheckpointEvery: 3})
	if err != nil {
		t.Fatal(err)
	}
	lst, _ := d.NewList(0)
	for i := 0; i < 30; i++ {
		a, _ := d.BeginARU()
		b, err := d.NewBlock(a, lst, NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(a, b, fill(d, byte(i))); err != nil {
			t.Fatal(err)
		}
		if err := d.EndARU(a); err != nil {
			t.Fatal(err)
		}
		if i%7 == 6 {
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	img := dev.Image()

	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 400; trial++ {
		corrupt := append([]byte(nil), img...)
		flips := rng.Intn(8) + 1
		for f := 0; f < flips; f++ {
			bit := rng.Intn(len(corrupt) * 8)
			corrupt[bit/8] ^= 1 << (bit % 8)
		}
		d2, err := Open(disk.NewMem(layout.DiskBytes()).Reopen(corrupt), Params{})
		if err != nil {
			continue // clean refusal is fine
		}
		if err := d2.VerifyInternal(); err != nil {
			t.Fatalf("trial %d: recovery accepted a corrupt image with broken invariants: %v", trial, err)
		}
	}
}

// TestFullDiskStillMountsAndFrees: a disk filled to the growth reserve
// still mounts, reads, deletes (freeing space through the reserve) and
// then accepts new data again.
func TestFullDiskStillMountsAndFrees(t *testing.T) {
	p := Params{Layout: testLayout(16), CleanerLowWater: 1}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	// Fill until the growth reserve refuses more data.
	var lists []ListID
	var blocks []BlockID
fill:
	for {
		lst, err := d.NewList(0)
		if err != nil {
			break
		}
		lists = append(lists, lst)
		for j := 0; j < 6; j++ {
			b, err := d.NewBlock(0, lst, NilBlock)
			if err != nil {
				break fill
			}
			if err := d.Write(0, b, fill(d, byte(j+1))); err != nil {
				break fill
			}
			blocks = append(blocks, b)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if len(blocks) == 0 {
		t.Fatal("nothing written before the reserve hit")
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Remount the (nearly) full disk: reads work.
	d2, err := Open(dev, Params{CleanerLowWater: 1})
	if err != nil {
		t.Fatalf("full disk failed to mount: %v", err)
	}
	buf := make([]byte, d2.BlockSize())
	if err := d2.Read(0, blocks[0], buf); err != nil {
		t.Fatalf("read on full disk: %v", err)
	}
	// Growth is refused…
	if _, err := d2.NewList(0); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("growth on full disk: %v", err)
	}
	// …but deletes go through the reserve and free space.
	for _, l := range lists[:len(lists)/2] {
		if err := d2.DeleteList(0, l); err != nil {
			t.Fatalf("delete on full disk: %v", err)
		}
	}
	if err := d2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after frees: %v", err)
	}
	// Growth works again.
	lst, err := d2.NewList(0)
	if err != nil {
		t.Fatalf("growth after freeing: %v", err)
	}
	b, err := d2.NewBlock(0, lst, NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Write(0, b, fill(d2, 0x99)); err != nil {
		t.Fatal(err)
	}
	if err := d2.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d2.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// barrierFault is a device whose next sync after a write into a
// checkpoint region fails once armed, though the write has landed: a
// checkpoint record whose publish barrier reports an error while its
// bytes reach the disk anyway (a later sync makes them durable).
type barrierFault struct {
	*disk.Sim
	layout  seg.Layout
	armed   bool
	written bool
}

func (f *barrierFault) WriteAt(b []byte, off int64) error {
	for r := 0; r < 2 && f.armed; r++ {
		if off >= f.layout.CkptOff(r) && off < f.layout.CkptOff(r)+f.layout.CkptRegionBytes() {
			f.written = true
		}
	}
	return f.Sim.WriteAt(b, off)
}

func (f *barrierFault) Sync() error {
	if f.armed && f.written {
		f.armed = false
		return disk.ErrInjected
	}
	return f.Sim.Sync()
}

// TestFailedCheckpointOrphanLosesToNextBase: a delta whose publish barrier
// fails may still reach region 0. The base that follows it in region 1
// frees the log the orphan's replay window needs, so it must be strictly
// newer than the orphan: a crash before the next record must remount
// from the base and read back every acknowledged write.
func TestFailedCheckpointOrphanLosesToNextBase(t *testing.T) {
	p := Params{Layout: testLayout(16), CheckpointEvery: -1, CleanerLowWater: 2}
	dev := &barrierFault{Sim: disk.NewMem(p.Layout.DiskBytes()), layout: p.Layout}
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	lst, _ := d.NewList(0)
	blocks := make([]BlockID, 4)
	for i := range blocks {
		if blocks[i], err = d.NewBlock(0, lst, NilBlock); err != nil {
			t.Fatal(err)
		}
	}
	val := byte(0)
	round := func() {
		t.Helper()
		val++
		for _, b := range blocks {
			if err := d.Write(0, b, fill(d, val)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	round()

	// The first delta appends to the initial base's chain in region 0.
	dev.armed = true
	if err := d.Checkpoint(); !errors.Is(err, disk.ErrInjected) {
		t.Fatalf("checkpoint with a failing barrier: %v", err)
	}
	orphan, err := readChain(dev, p.Layout, 0)
	if err != nil || orphan.Head().Base {
		t.Fatalf("the failed delta is not region 0's head: %v", err)
	}

	// More commits, then a checkpoint that succeeds: a base in region 1
	// whose window ends past the orphan's.
	for i := 0; i < 12; i++ {
		round()
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	d.mu.Lock()
	window := make(map[int]uint64) // segments between the two records' FlushedSeqs
	for s, seq := range d.segSeq {
		if s != d.curSeg && seq > orphan.Head().FlushedSeq && seq <= d.ckptSeq {
			window[s] = seq
		}
	}
	d.mu.Unlock()
	if len(window) == 0 {
		t.Fatal("the base covers no segment past the orphan")
	}
	// Commit until the log reuses one of those segments.
	for reused := false; !reused; {
		if val > 200 {
			t.Fatal("no segment between the two records was reused")
		}
		round()
		d.mu.Lock()
		for s, seq := range window {
			reused = reused || d.segSeq[s] != seq
		}
		d.mu.Unlock()
	}
	// One more round, so that the reused space holds no block's newest
	// data: a stale table's locations must not read back right (every
	// round writes the blocks at the same offsets of a chunk).
	round()

	// Crash before another record and remount.
	d2, err := Open(dev.Reopen(dev.Image()), Params{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d2.BlockSize())
	for _, b := range blocks {
		if err := d2.Read(0, b, buf); err != nil || !bytes.Equal(buf, fill(d, val)) {
			t.Fatalf("block %d after remount: %v %#x, want %#x", b, err, buf[0], val)
		}
	}
}
