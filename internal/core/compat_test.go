package core

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"aru/internal/disk"
	"aru/internal/seg"
)

// The engine reads one on-disk format, the one it writes: chunked segments
// and checkpoint chains. Two fixtures hold images of retired formats, which
// a mount must refuse by name; a third was written in the current format
// by an earlier build, and must mount to what the same history leaves on a
// fresh disk.
const (
	v1FixturePath         = "testdata/v1_image.bin.gz"          // single-snapshot checkpoints, front-packed segments
	tailPackedFixturePath = "testdata/tail_packed_image.bin.gz" // checkpoint chains, tail-packed segments
	chunkedFixturePath    = "testdata/chunked_image.bin.gz"     // checkpoint chains, chunked segments
)

// fixtureHistory is the deterministic history baked into the fixtures:
// committed units, an abort, a deletion, an overwrite, and checkpoints
// mid-stream; then, past the newest checkpoint, a flushed unit and six
// one-block units with a durability point each, which stack chunks in the
// open segment. Payloads are patterned (compressible) so the gzip fixtures
// stay small. The retired fixtures hold the history up to the first tail
// unit.
func fixtureHistory(t *testing.T, d *LLD) {
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
	step := func(fn func() error) {
		t.Helper()
		if err := fn(); err != nil {
			t.Fatal(err)
		}
	}
	unit(0x11, 3, false)
	unit(0x22, 2, false)
	step(d.Flush)
	step(d.Checkpoint)
	unit(0x33, 4, false)
	unit(0x44, 2, true) // aborted: must stay invisible
	step(d.Flush)
	step(d.Checkpoint)
	// Tail beyond the newest checkpoint: replayed from the log.
	unit(0x55, 3, false)
	step(d.Flush)
	for u := 0; u < 6; u++ {
		aru, err := d.BeginARU()
		if err != nil {
			t.Fatal(err)
		}
		durable := func() error {
			lst, err := d.NewList(aru)
			if err != nil {
				return err
			}
			b, err := d.NewBlock(aru, lst, NilBlock)
			if err != nil {
				return err
			}
			if err := d.Write(aru, b, pay(byte(0x70+u), u)); err != nil {
				return err
			}
			if u%2 == 0 {
				return d.CommitDurable(aru)
			}
			if err := d.EndARU(aru); err != nil {
				return err
			}
			return d.Flush()
		}
		step(durable)
	}
}

// fixtureParams are the parameters the chunked fixture was written with:
// no checkpoint but the history's own, and every one a delta on Format's
// base.
func fixtureParams() Params {
	return Params{Layout: testLayout(64), CheckpointEvery: -1, CkptCompactEvery: 1 << 20}
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

// TestCurrentImageCompat mounts the chunked fixture, which the build
// before this format became the only one wrote with fixtureHistory, and
// holds it to what the same history leaves on a fresh disk: the lists and
// their contents, VerifyInternal, and the same again after more units and
// a crash. The fixture has what a mount must get right: a segment of three
// or more chunks, a chain of depth two and a replay window.
func TestCurrentImageCompat(t *testing.T) {
	p := fixtureParams()
	l := p.Layout
	img := loadFixture(t, chunkedFixturePath)
	if most := mostChunks(l, img); most < 3 {
		t.Fatalf("no segment of the fixture holds more than %d chunks", most)
	}
	if depth := newestChain(t, img, l).Depth(); depth < 2 {
		t.Fatalf("the fixture's chain has depth %d", depth)
	}
	fresh, err := Format(disk.NewMem(l.DiskBytes()), p)
	if err != nil {
		t.Fatal(err)
	}
	fixtureHistory(t, fresh)

	dev := disk.FromImage(img, disk.Geometry{})
	d, rpt, err := OpenReport(dev, p)
	if err != nil {
		t.Fatalf("the chunked fixture does not mount: %v", err)
	}
	if rpt.SegmentsReplayed == 0 || rpt.DeltaChainDepth < 2 {
		t.Fatalf("mount replayed %d segments from a chain of depth %d", rpt.SegmentsReplayed, rpt.DeltaChainDepth)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
	if got, want := logicalState(t, d), logicalState(t, fresh); !reflect.DeepEqual(got, want) {
		t.Fatal("the fixture reads differently from the same history on a fresh disk")
	}

	more := func(d *LLD) {
		lst, err := d.NewList(0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 12; i++ {
			b, err := d.NewBlock(0, lst, NilBlock)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Write(0, b, fill(d, byte(0x90+i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	more(d)
	more(fresh)
	want := logicalState(t, fresh)
	dev.Crash()
	r, err := Open(dev.Reopen(dev.Image()), p)
	if err != nil {
		t.Fatalf("the fixture does not remount after more units and a crash: %v", err)
	}
	if err := r.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
	if got := logicalState(t, r); !reflect.DeepEqual(got, want) {
		t.Fatal("the fixture reads differently after more units and a crash")
	}
}

// TestRetiredImagesRefused: an image of a retired format is refused, never
// taken for an empty log — its one-image segments would drop out of the
// replay window, and its block-counting slots would read the wrong bytes.
// The single-snapshot fixture is refused at its checkpoint region, the
// tail-packed one at a segment, each with seg.ErrRetiredFormat and the
// place named. Format reuses either device, and what it then holds mounts
// and verifies.
func TestRetiredImagesRefused(t *testing.T) {
	for _, tc := range []struct{ path, where string }{
		{v1FixturePath, "checkpoint region"},
		{tailPackedFixturePath, "segment"},
	} {
		img := loadFixture(t, tc.path)
		dev := disk.FromImage(img, disk.Geometry{})
		_, _, err := OpenReport(dev, Params{})
		if !errors.Is(err, seg.ErrRetiredFormat) || !strings.Contains(err.Error(), tc.where) {
			t.Fatalf("%s: mount: %v; want seg.ErrRetiredFormat naming a %s", tc.path, err, tc.where)
		}
		l, err := seg.DecodeSuper(img)
		if err != nil {
			t.Fatal(err)
		}
		p := Params{Layout: l, CheckpointEvery: -1}
		d, err := Format(dev, p)
		if err != nil {
			t.Fatalf("%s: Format: %v", tc.path, err)
		}
		fixtureHistory(t, d)
		want := logicalState(t, d)
		r, err := Open(disk.FromImage(dev.Image(), disk.Geometry{}), p)
		if err != nil {
			t.Fatalf("%s: the reformatted device does not mount: %v", tc.path, err)
		}
		if err := r.VerifyInternal(); err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if got := logicalState(t, r); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the reformatted device reads differently after a remount", tc.path)
		}
	}
}

// TestCheckpointStaysInItsRegion: the tables are bounded by a base record
// of them fitting a checkpoint region, which a base of the layout's own
// MaxBlocks and MaxLists does not. A client allocating that many is
// refused at the first allocation that would not fit, with ErrNoSpace; the
// checkpoints of what it holds write inside their region and nowhere else;
// and the disk, closed, mounts to the same lists.
func TestCheckpointStaysInItsRegion(t *testing.T) {
	l := seg.Layout{BlockSize: 1024, SegBytes: 8192, NumSegs: 128, MaxBlocks: 256, MaxLists: 64}
	p := Params{Layout: l, CheckpointEvery: -1, CkptCompactEvery: -1}
	dev := disk.NewMem(l.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	refused := func(err error) bool {
		t.Helper()
		if err != nil && (!errors.Is(err, ErrNoSpace) || !strings.Contains(err.Error(), "checkpoint tables full")) {
			t.Fatal(err)
		}
		return err != nil
	}
	var lists []ListID
	for len(lists) < l.MaxLists {
		lst, err := d.NewList(0)
		if refused(err) {
			break
		}
		lists = append(lists, lst)
	}
	blocks := 0
	for ; blocks < l.MaxBlocks; blocks++ {
		b, err := d.NewBlock(0, lists[blocks%len(lists)], NilBlock)
		if refused(err) {
			break
		}
		if blocks%4 == 0 {
			if err := d.Write(0, b, fill(d, byte(blocks))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !l.CkptFits(blocks, len(lists), 0) || l.CkptFits(blocks+1, len(lists), 0) {
		t.Fatalf("%d lists and %d blocks allocated; a base of them fits %v, of one more block %v",
			len(lists), blocks, l.CkptFits(blocks, len(lists), 0), l.CkptFits(blocks+1, len(lists), 0))
	}
	if _, err := d.NewList(0); !refused(err) {
		t.Fatal("a list was allocated past the bound")
	}
	for i := 0; i < 2; i++ {
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		before := dev.Image()
		if err := d.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i+1, err)
		}
		after := dev.Image()
		lo, hi := l.CkptOff(d.ckptRegion), l.CkptOff(d.ckptRegion)+l.CkptRegionBytes()
		if !bytes.Equal(before[:lo], after[:lo]) || !bytes.Equal(before[hi:], after[hi:]) {
			t.Fatalf("checkpoint %d into region %d wrote outside [%d, %d)", i+1, d.ckptRegion, lo, hi)
		}
	}
	want := logicalState(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(disk.FromImage(dev.Image(), disk.Geometry{}), p)
	if err != nil {
		t.Fatalf("the closed disk does not mount: %v", err)
	}
	if err := r.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
	if got := logicalState(t, r); !reflect.DeepEqual(got, want) {
		t.Fatal("the closed disk mounts to other lists")
	}
}

// TestLayoutGeometryPinned: where the checkpoint regions end and the
// segments begin is geometry every image carries; no change to a record
// format may move it.
func TestLayoutGeometryPinned(t *testing.T) {
	for _, tc := range []struct {
		name                   string
		l                      seg.Layout
		region, seg0, diskSize int64
	}{
		{"DefaultLayout(800)", seg.DefaultLayout(800), 5427712, 10855936, 430286336},
		{"DefaultLayout(256)", seg.DefaultLayout(256), 1737216, 3474944, 137692672},
		{"DefaultLayout(128)", seg.DefaultLayout(128), 868864, 1738240, 68847104},
		{"DefaultLayout(64)", seg.DefaultLayout(64), 434688, 869888, 34424320},
		{"testLayout(64)", testLayout(64), 193024, 386560, 910848},
	} {
		if got := [3]int64{tc.l.CkptRegionBytes(), tc.l.SegOff(0), tc.l.DiskBytes()}; got != [3]int64{tc.region, tc.seg0, tc.diskSize} {
			t.Errorf("%s: region, segment 0 and disk at %v, want %v", tc.name, got, [3]int64{tc.region, tc.seg0, tc.diskSize})
		}
	}
}
