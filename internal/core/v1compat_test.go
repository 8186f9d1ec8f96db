package core

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"aru/internal/disk"
	"aru/internal/seg"
)

const (
	v1FixturePath   = "testdata/v1_image.bin.gz"
	pr18FixturePath = "testdata/pr18_image.bin.gz"
)

// v1FixtureHistory is the deterministic history baked into the v1
// fixture image: committed units, an abort, a deletion, an overwrite,
// and checkpoints mid-stream, then a flushed-but-not-checkpointed tail
// so mounting exercises both the legacy snapshot and log replay.
// Payloads are patterned (compressible) so the gzip fixture stays
// small.
func v1FixtureHistory(t *testing.T, d *LLD) {
	t.Helper()
	bsize := d.BlockSize()
	pay := func(tag byte, serial int) []byte {
		buf := make([]byte, bsize)
		for i := range buf {
			buf[i] = tag ^ byte(serial+i%7)
		}
		return buf
	}
	unit := func(tag byte, nBlocks int, abort bool) {
		aru, err := d.BeginARU()
		if err != nil {
			t.Fatal(err)
		}
		lst, err := d.NewList(aru)
		if err != nil {
			t.Fatal(err)
		}
		var blocks []BlockID
		for i := 0; i < nBlocks; i++ {
			b, err := d.NewBlock(aru, lst, NilBlock)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Write(aru, b, pay(tag, i)); err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, b)
		}
		if len(blocks) > 1 {
			if err := d.Write(aru, blocks[0], pay(tag, 100)); err != nil {
				t.Fatal(err)
			}
		}
		if len(blocks) > 2 {
			if err := d.DeleteBlock(aru, blocks[2]); err != nil {
				t.Fatal(err)
			}
		}
		if abort {
			if err := d.AbortARU(aru); err != nil {
				t.Fatal(err)
			}
			return
		}
		if err := d.EndARU(aru); err != nil {
			t.Fatal(err)
		}
	}
	unit(0x11, 3, false)
	unit(0x22, 2, false)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	unit(0x33, 4, false)
	unit(0x44, 2, true) // aborted: must stay invisible
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Tail beyond the newest checkpoint: replayed from the log.
	unit(0x55, 3, false)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
}

func v1FixtureParams() Params {
	return Params{Layout: testLayout(64), CheckpointEvery: -1, CkptCompactEvery: -1}
}

// loadV1Fixture returns the checked-in old-format image: the fixture
// history as an engine from before checkpoint chains and tail-packed
// segments left it. No engine in this tree writes that format any more,
// so the file is its only source.
func loadV1Fixture(t *testing.T) []byte {
	t.Helper()
	return loadFixture(t, v1FixturePath)
}

// loadFixture returns the checked-in image at path, unpacked.
func loadFixture(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.FromSlash(path))
	if err != nil {
		t.Fatalf("fixture missing: %v", err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	img, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

// segmentLayouts counts the valid segments of img by format: one image
// at the segment's start (the oldest trailer magic), one at its end, or a
// stack of chunks.
func segmentLayouts(t *testing.T, l seg.Layout, img []byte) (n [3]int) {
	t.Helper()
	for s := 0; s < l.NumSegs; s++ {
		if tr, err := seg.DecodeTrailer(img[l.SegOff(s):l.SegOff(s+1)]); err == nil {
			n[tr.Format]++
		}
	}
	return n
}

// TestMixedSegmentLayouts: where a segment's data lies is read off its
// own trailer and the slot numbers that point into it, so an image the
// older engine wrote keeps working segment by segment as this one writes
// on. The front-packed fixture is mounted, written to, crashed and
// remounted: front-packed and chunked segments side by side pass
// VerifyInternal (whose device check walks both kinds) and read back
// exactly what the same history leaves on a fresh disk.
func TestMixedSegmentLayouts(t *testing.T) {
	p := v1FixtureParams()
	more := func(d *LLD) {
		lst, err := d.NewList(0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20; i++ { // three segments' worth
			b, err := d.NewBlock(0, lst, NilBlock)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Write(0, b, fill(d, byte(0x60+i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	dev := disk.FromImage(loadV1Fixture(t), disk.Geometry{})
	d, err := Open(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	more(d)
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
	if n := segmentLayouts(t, p.Layout, dev.Image()); n[seg.FrontPacked] == 0 || n[seg.Chunked] == 0 {
		t.Fatalf("image holds %d front-packed and %d chunked segments, want both", n[seg.FrontPacked], n[seg.Chunked])
	}

	dev2 := disk.NewMem(p.Layout.DiskBytes())
	fresh, err := Format(dev2, p)
	if err != nil {
		t.Fatal(err)
	}
	v1FixtureHistory(t, fresh)
	more(fresh)
	want := logicalState(t, fresh)
	if got := logicalState(t, d); !reflect.DeepEqual(got, want) {
		t.Fatal("mixed image reads differently from the same history on a fresh disk")
	}

	dev.Crash()
	r, rpt, err := OpenReport(dev.Recycle(), p)
	if err != nil {
		t.Fatalf("mixed image does not remount: %v", err)
	}
	if err := r.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
	if rpt.SegmentsReplayed == 0 {
		t.Fatal("remount replayed no segments: both layouts should be in the window")
	}
	if got := logicalState(t, r); !reflect.DeepEqual(got, want) {
		t.Fatal("mixed image reads differently after a crash and remount")
	}
}

// TestV1ImageCompat mounts the checked-in old-format fixture image —
// legacy v1 checkpoint snapshots plus a log tail — and verifies the
// current engine recovers it to exactly the state the same history
// produces on a fresh disk, then upgrades the region to a v2 chain on
// the first checkpoint.
func TestV1ImageCompat(t *testing.T) {
	p := v1FixtureParams()
	img := loadV1Fixture(t)

	// The fixture really is old-format: every valid region decodes as a
	// legacy single-record chain, and every segment is front-packed under
	// the old trailer magic.
	l := p.Layout
	if n := segmentLayouts(t, l, img); n[seg.FrontPacked] == 0 || n[seg.TailPacked]+n[seg.Chunked] != 0 {
		t.Fatalf("fixture holds segments %v by format, want only front-packed ones", n)
	}
	legacy := 0
	for i := 0; i < 2; i++ {
		off := l.CkptOff(i)
		ch, err := seg.DecodeCkptChain(img[off : off+l.CkptRegionBytes()])
		if err != nil {
			continue
		}
		if !ch.Legacy {
			t.Fatalf("fixture region %d is not legacy v1", i)
		}
		legacy++
	}
	if legacy == 0 {
		t.Fatal("fixture has no valid checkpoint region")
	}

	dev := disk.FromImage(img, disk.Geometry{})
	d, rpt, err := OpenReport(dev, p)
	if err != nil {
		t.Fatalf("legacy image does not mount: %v", err)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
	got := logicalState(t, d)

	// The recovered state must equal the same history on a fresh disk.
	want := func() diskState {
		dev2 := disk.NewMem(p.Layout.DiskBytes())
		d2, err := Format(dev2, p)
		if err != nil {
			t.Fatal(err)
		}
		v1FixtureHistory(t, d2)
		return logicalState(t, d2)
	}()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("legacy image recovered to a different state: got %d lists, want %d", len(got), len(want))
	}
	if rpt.SegmentsReplayed == 0 {
		t.Fatal("recovery replayed no segments (log tail lost?)")
	}
	if rpt.DeltaChainDepth != 0 {
		t.Fatalf("legacy region reported chain depth %d", rpt.DeltaChainDepth)
	}

	// First checkpoint after a legacy mount must start a fresh v2 chain
	// (a delta has no base to land on in a v1 region).
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	img2 := dev.Image()
	upgraded := false
	for i := 0; i < 2; i++ {
		off := l.CkptOff(i)
		ch, err := seg.DecodeCkptChain(img2[off : off+l.CkptRegionBytes()])
		if err != nil || ch.Legacy {
			continue
		}
		if !ch.Head().Base {
			t.Fatalf("post-upgrade region %d head is not a base", i)
		}
		upgraded = true
	}
	if !upgraded {
		t.Fatal("checkpoint after legacy mount did not write a v2 base")
	}
	d2, err := Open(disk.FromImage(dev.Image(), disk.Geometry{}), p)
	if err != nil {
		t.Fatal(err)
	}
	if got2 := logicalState(t, d2); !reflect.DeepEqual(got2, got) {
		t.Fatal("state changed across the v1-to-v2 upgrade")
	}
}

// TestTailPackedImageCompat mounts the image the engine before segment
// continuation left of the fixture history — every segment one tail-packed
// image, and a checkpoint chain whose records give slots as block counts
// from the image's start — and carries on in it: the mount reads what the
// same history leaves on a fresh disk; more units with durability points
// between them stack chunks beside the old images; and after a crash the
// remount, whose replay window holds both formats, passes VerifyInternal
// and reads every block back. No engine in this tree writes that format
// any more, so the file is its only source.
func TestTailPackedImageCompat(t *testing.T) {
	p := Params{Layout: testLayout(64), CheckpointEvery: -1}
	img := loadFixture(t, pr18FixturePath)
	l := p.Layout
	if n := segmentLayouts(t, l, img); n[seg.TailPacked] == 0 || n[seg.FrontPacked]+n[seg.Chunked] != 0 {
		t.Fatalf("fixture holds segments %v by format, want only tail-packed ones", n)
	}
	counted := 0
	for i := 0; i < 2; i++ {
		off := l.CkptOff(i)
		ch, err := seg.DecodeCkptChain(img[off : off+l.CkptRegionBytes()])
		if err != nil {
			continue
		}
		if ch.Legacy {
			t.Fatalf("fixture region %d is a v1 snapshot, want a chain", i)
		}
		for _, b := range ch.Materialize().Blocks {
			if b.HasData && b.Slot&seg.SlotSector != 0 {
				t.Fatalf("fixture checkpoint places block %d at slot %#x, want a block count", b.ID, b.Slot)
			}
			if b.HasData {
				counted++
			}
		}
	}
	if counted == 0 {
		t.Fatal("fixture checkpoints place no block")
	}

	more := func(d *LLD) {
		for u := 0; u < 6; u++ {
			aru, err := d.BeginARU()
			if err != nil {
				t.Fatal(err)
			}
			lst, err := d.NewList(aru)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i <= u%3; i++ {
				b, err := d.NewBlock(aru, lst, NilBlock)
				if err != nil {
					t.Fatal(err)
				}
				if err := d.Write(aru, b, fill(d, byte(0x70+4*u+i))); err != nil {
					t.Fatal(err)
				}
			}
			// A durability point per unit: a chunk each.
			if u%2 == 0 {
				err = d.CommitDurable(aru)
			} else if err = d.EndARU(aru); err == nil {
				err = d.Flush()
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	fresh, err := Format(disk.NewMem(l.DiskBytes()), p)
	if err != nil {
		t.Fatal(err)
	}
	v1FixtureHistory(t, fresh)

	dev := disk.FromImage(img, disk.Geometry{})
	d, rpt, err := OpenReport(dev, p)
	if err != nil {
		t.Fatalf("tail-packed image does not mount: %v", err)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
	if rpt.SegmentsReplayed == 0 {
		t.Fatal("mount replayed no segments (log tail lost?)")
	}
	if got, want := logicalState(t, d), logicalState(t, fresh); !reflect.DeepEqual(got, want) {
		t.Fatal("tail-packed image reads differently from the same history on a fresh disk")
	}

	more(d)
	more(fresh)
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
	want := logicalState(t, fresh)
	if got := logicalState(t, d); !reflect.DeepEqual(got, want) {
		t.Fatal("mixed image reads differently from the same history on a fresh disk")
	}
	n := segmentLayouts(t, l, dev.Image())
	if n[seg.TailPacked] == 0 || n[seg.Chunked] == 0 {
		t.Fatalf("image holds segments %v by format, want tail-packed and chunked ones", n)
	}
	if most := mostChunks(l, dev.Image()); most < 3 {
		t.Fatalf("no segment took more than %d chunks from six durability points", most)
	}

	dev.Crash()
	r, rpt, err := OpenReport(dev.Recycle(), p)
	if err != nil {
		t.Fatalf("mixed image does not remount: %v", err)
	}
	if err := r.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
	if rpt.SegmentsReplayed < 2 {
		t.Fatalf("remount replayed %d segments: both formats should be in the window", rpt.SegmentsReplayed)
	}
	if got := logicalState(t, r); !reflect.DeepEqual(got, want) {
		t.Fatal("mixed image reads differently after a crash and remount")
	}
	// The cleaner moves blocks out of the old images like any others.
	if _, err := r.Clean(l.NumSegs); err != nil {
		t.Fatal(err)
	}
	if err := r.VerifyInternal(); err != nil {
		t.Fatalf("after cleaning: %v", err)
	}
	if got := logicalState(t, r); !reflect.DeepEqual(got, want) {
		t.Fatal("mixed image reads differently after cleaning")
	}
}
