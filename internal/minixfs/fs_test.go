package minixfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"testing"

	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/seg"
)

// newTestFS formats a small logical disk and file system.
func newTestFS(t *testing.T, variant core.Variant, policy DeletePolicy) (*FS, *disk.Sim) {
	t.Helper()
	layout := seg.Layout{
		BlockSize: 1024,
		SegBytes:  16384,
		NumSegs:   256,
		MaxBlocks: 16384,
		MaxLists:  8192,
	}
	dev := disk.NewMem(layout.DiskBytes())
	ld, err := core.Format(dev, core.Params{Layout: layout, Variant: variant})
	if err != nil {
		t.Fatalf("Format: %v", err)
	}
	fs, err := Mkfs(ld, Config{NumInodes: 512, Policy: policy})
	if err != nil {
		t.Fatalf("Mkfs: %v", err)
	}
	return fs, dev
}

func TestCreateWriteReadDelete(t *testing.T) {
	for _, pol := range []DeletePolicy{DeleteBlocksFirst, DeleteListFirst} {
		t.Run(pol.String(), func(t *testing.T) {
			fs, _ := newTestFS(t, core.VariantNew, pol)
			f, err := fs.Create("/hello.txt")
			if err != nil {
				t.Fatalf("Create: %v", err)
			}
			data := bytes.Repeat([]byte("logical disk! "), 200) // ~2.7 blocks
			if _, err := f.WriteAt(data, 0); err != nil {
				t.Fatalf("WriteAt: %v", err)
			}
			got, err := f.ReadAll()
			if err != nil {
				t.Fatalf("ReadAll: %v", err)
			}
			if !bytes.Equal(got, data) {
				t.Fatalf("round trip mismatch: %d vs %d bytes", len(got), len(data))
			}
			if _, err := fs.Fsck(); err != nil {
				t.Fatalf("Fsck: %v", err)
			}
			if err := fs.Remove("/hello.txt"); err != nil {
				t.Fatalf("Remove: %v", err)
			}
			if _, err := fs.Open("/hello.txt"); !errors.Is(err, ErrNotExist) {
				t.Fatalf("Open after Remove: %v", err)
			}
			if _, err := fs.Fsck(); err != nil {
				t.Fatalf("Fsck after Remove: %v", err)
			}
			if err := fs.Disk().VerifyInternal(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestDirectories(t *testing.T) {
	fs, _ := newTestFS(t, core.VariantNew, DeleteBlocksFirst)
	if err := fs.Mkdir("/a"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/a/b/c.txt"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/a"); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate Mkdir: %v", err)
	}
	fi, err := fs.Stat("/a/b/c.txt")
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode != ModeFile {
		t.Fatalf("Stat mode = %v", fi.Mode)
	}
	ents, err := fs.ReadDir("/a")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name != "b" || ents[0].Mode != ModeDir {
		t.Fatalf("ReadDir /a = %+v", ents)
	}
	if err := fs.Rmdir("/a/b"); !errors.Is(err, ErrNotEmpty) {
		t.Fatalf("Rmdir non-empty: %v", err)
	}
	if err := fs.Remove("/a/b/c.txt"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rmdir("/a/b"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Fsck(); err != nil {
		t.Fatal(err)
	}
}

func TestRenameAndTruncate(t *testing.T) {
	fs, _ := newTestFS(t, core.VariantNew, DeleteListFirst)
	f, err := fs.Create("/x")
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0x5a}, 5000)
	if _, err := f.WriteAt(payload, 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename("/x", "/d/y"); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	if _, err := fs.Stat("/x"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("old name still present: %v", err)
	}
	g, err := fs.Open("/d/y")
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload lost in rename")
	}
	if err := g.Truncate(100); err != nil {
		t.Fatalf("Truncate: %v", err)
	}
	if g.Size() != 100 {
		t.Fatalf("size after truncate = %d", g.Size())
	}
	buf := make([]byte, 200)
	n, err := g.ReadAt(buf, 0)
	if err != io.EOF {
		t.Fatalf("ReadAt past EOF err = %v", err)
	}
	if n != 100 || !bytes.Equal(buf[:100], payload[:100]) {
		t.Fatalf("truncated contents wrong (n=%d)", n)
	}
	if _, err := fs.Fsck(); err != nil {
		t.Fatal(err)
	}
}

func TestMountAfterReopen(t *testing.T) {
	fs, dev := newTestFS(t, core.VariantNew, DeleteBlocksFirst)
	f, err := fs.Create("/persist")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte("durable enough"), 0); err != nil {
		t.Fatal(err)
	}
	if err := fs.Disk().Close(); err != nil {
		t.Fatal(err)
	}
	ld, err := core.Open(dev, core.Params{})
	if err != nil {
		t.Fatal(err)
	}
	fs2, err := Mount(ld, DeleteBlocksFirst)
	if err != nil {
		t.Fatalf("Mount: %v", err)
	}
	g, err := fs2.Open("/persist")
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "durable enough" {
		t.Fatalf("contents = %q", got)
	}
	if _, err := fs2.Fsck(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashDuringCreateIsAtomic(t *testing.T) {
	// Create many files, crash at an arbitrary point (no flush), and
	// verify the recovered file system always passes Fsck: each create
	// is all-or-nothing.
	fs, dev := newTestFS(t, core.VariantNew, DeleteBlocksFirst)
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("/f%03d", i)
		f, err := fs.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(bytes.Repeat([]byte{byte(i)}, 1500), 0); err != nil {
			t.Fatal(err)
		}
	}
	// Crash without flushing.
	ld2, err := core.Open(dev.Reopen(dev.Image()), core.Params{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	fs2, err := Mount(ld2, DeleteBlocksFirst)
	if err != nil {
		t.Fatalf("Mount after crash: %v", err)
	}
	rpt, err := fs2.Fsck()
	if err != nil {
		t.Fatalf("Fsck after crash: %v", err)
	}
	// Whatever subset of creates became durable must be complete files.
	ents, err := fs2.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != rpt.FilesFound {
		t.Fatalf("root has %d entries, fsck found %d files", len(ents), rpt.FilesFound)
	}
	if err := ld2.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

func TestStatfs(t *testing.T) {
	fs, _ := newTestFS(t, core.VariantNew, DeleteBlocksFirst)
	st, err := fs.Statfs()
	if err != nil {
		t.Fatal(err)
	}
	if st.InodesTotal != 512 || st.InodesUsed != 1 { // root only
		t.Fatalf("fresh fs: %+v", st)
	}
	if st.FreeSegments <= 0 {
		t.Fatalf("no free segments reported: %+v", st)
	}
	for i := 0; i < 5; i++ {
		if _, err := fs.Create(fmt.Sprintf("/s%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st2, err := fs.Statfs()
	if err != nil {
		t.Fatal(err)
	}
	if st2.InodesUsed != 6 {
		t.Fatalf("after 5 creates: %+v", st2)
	}
	if err := fs.Remove("/s0"); err != nil {
		t.Fatal(err)
	}
	st3, _ := fs.Statfs()
	if st3.InodesUsed != 5 {
		t.Fatalf("after remove: %+v", st3)
	}
}
