package minixfs

import (
	"errors"
	"fmt"
	"io"
	"testing"

	"aru/internal/alloctest"
	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/seg"
)

// TestRenameIntoOwnSubtreeRefused: moving a directory below itself
// would unlink it from the tree in one durable unit. Rename refuses it
// before it begins the unit, and nothing changes.
func TestRenameIntoOwnSubtreeRefused(t *testing.T) {
	for _, newPath := range []string{"/a/b", "/a/x/y"} {
		t.Run(newPath, func(t *testing.T) {
			fs, _ := newTestFS(t, core.VariantNew, DeleteListFirst)
			for _, d := range []string{"/a", "/a/x"} {
				if err := fs.Mkdir(d); err != nil {
					t.Fatal(err)
				}
			}
			if err := fs.Rename("/a", newPath); !errors.Is(err, ErrBadName) {
				t.Fatalf("Rename(/a, %s) = %v, want ErrBadName", newPath, err)
			}
			if st, err := fs.Stat("/a"); err != nil || st.Mode != ModeDir {
				t.Fatalf("Stat(/a) = %+v, %v after the refused rename", st, err)
			}
			if _, err := fs.Stat("/a/x"); err != nil {
				t.Fatalf("Stat(/a/x): %v", err)
			}
			if _, err := fs.Fsck(); err != nil {
				t.Fatalf("Fsck: %v", err)
			}
		})
	}
}

// TestReadDirAcrossBlocksWithSharedBuffers is the referee for the rule
// on FS's two scratch buffers. ReadDir and Fsck read inodes and bitmap
// blocks inside their loops over a directory block; if the inode
// helpers shared the directory's buffer, every slot after the first
// lookup would decode inode-table bytes. The directory spans at least
// three blocks and holds files, subdirectories, a hard link and a
// renamed entry.
func TestReadDirAcrossBlocksWithSharedBuffers(t *testing.T) {
	fs, _ := newTestFS(t, core.VariantNew, DeleteBlocksFirst)
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	perBlock := fs.bsize / direntSize
	want := make(map[string]Mode)
	for i := 0; i < 2*perBlock+5; i++ {
		name := fmt.Sprintf("f%03d", i)
		mode := ModeFile
		if i%5 == 0 {
			mode = ModeDir
			if err := fs.Mkdir("/d/" + name); err != nil {
				t.Fatal(err)
			}
		} else if _, err := fs.Create("/d/" + name); err != nil {
			t.Fatal(err)
		}
		want[name] = mode
	}
	if err := fs.Link("/d/f001", "/d/hardlink"); err != nil {
		t.Fatal(err)
	}
	want["hardlink"] = ModeFile
	if err := fs.Rename("/d/f002", "/d/renamed"); err != nil {
		t.Fatal(err)
	}
	delete(want, "f002")
	want["renamed"] = ModeFile
	if err := fs.Rename("/d/f005", "/d/f010/moved"); err != nil {
		t.Fatal(err)
	}
	delete(want, "f005")

	if st, _ := fs.Stat("/d"); st.Size < 3*uint64(fs.bsize) {
		t.Fatalf("directory is %d bytes, want at least three blocks", st.Size)
	}
	ents, err := fs.ReadDir("/d")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != len(want) {
		t.Fatalf("ReadDir returned %d entries, want %d", len(ents), len(want))
	}
	refs := make(map[Ino]int)
	var linked Ino
	for _, e := range ents {
		mode, ok := want[e.Name]
		if !ok {
			t.Fatalf("ReadDir returned unexpected entry %q (ino %d)", e.Name, e.Ino)
		}
		delete(want, e.Name)
		st, err := fs.Stat("/d/" + e.Name)
		if err != nil {
			t.Fatal(err)
		}
		if e.Mode != mode || st.Mode != mode || st.Ino != e.Ino {
			t.Fatalf("%s: ReadDir says ino %d mode %d, Stat says ino %d mode %d, want mode %d", e.Name, e.Ino, e.Mode, st.Ino, st.Mode, mode)
		}
		refs[e.Ino]++
		if e.Name == "hardlink" {
			linked = e.Ino
		}
	}
	if refs[linked] != 2 {
		t.Fatalf("the hard link's inode %d has %d entries in /d, want 2", linked, refs[linked])
	}
	for ino, n := range refs {
		in, err := fs.readInode(0, ino)
		if err != nil {
			t.Fatal(err)
		}
		if int(in.Nlink) != n {
			t.Fatalf("inode %d: nlink %d, %d entries in /d", ino, in.Nlink, n)
		}
	}
	rpt, err := fs.Fsck()
	if err != nil {
		t.Fatalf("Fsck: %v", err)
	}
	if rpt.DirsFound < 2+(2*perBlock+5)/5 {
		t.Fatalf("Fsck found %d directories", rpt.DirsFound)
	}
}

// TestAllocsFSSmallFile gates the file system's allocations on the
// paper's small-file mix, as the fs_smallfile benchmark runs it: ops go
// in triples over a populated tree — create and write 1 KiB, open and
// read a file made half a population ago, remove one made a population
// ago. What is left per triple is the handles Create and Open return,
// the block-list slices ListBlocks returns for each directory scan and
// handle, and the engine's own per-unit costs. Measured: 26 allocations
// and 1 209 bytes per triple; the budgets, 36 and 2 048, leave a third
// or more of headroom.
func TestAllocsFSSmallFile(t *testing.T) {
	const (
		dirs = 8
		live = 512
	)
	layout := seg.Layout{BlockSize: 1024, SegBytes: 32768, NumSegs: 256, MaxBlocks: 16384, MaxLists: 8192}
	ld, err := core.Format(disk.NewMem(layout.DiskBytes()), core.Params{Layout: layout})
	if err != nil {
		t.Fatal(err)
	}
	fs, err := Mkfs(ld, Config{NumInodes: 4 * live, Policy: DeleteListFirst})
	if err != nil {
		t.Fatal(err)
	}
	for d := 0; d < dirs; d++ {
		if err := fs.Mkdir(fmt.Sprintf("/d%d", d)); err != nil {
			t.Fatal(err)
		}
	}
	names := make([]string, 2*live)
	for i := range names {
		names[i] = fmt.Sprintf("/d%d/f%05d", i%dirs, i)
	}
	wbuf, rbuf := make([]byte, 1024), make([]byte, 2048)
	create := func(n int) {
		f, err := fs.Create(names[n%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt(wbuf, 0); err != nil {
			t.Fatal(err)
		}
	}
	for n := 0; n < live; n++ {
		create(n)
	}
	n := live
	op := func() {
		create(n)
		f, err := fs.Open(names[(n-live/2)%len(names)])
		if err != nil {
			t.Fatal(err)
		}
		if got, err := f.ReadAt(rbuf, 0); got != len(wbuf) || (err != nil && err != io.EOF) {
			t.Fatalf("ReadAt = %d, %v", got, err)
		}
		if err := fs.Remove(names[(n-live)%len(names)]); err != nil {
			t.Fatal(err)
		}
		n++
	}
	for i := 0; i < live; i++ {
		op()
	}
	alloctest.Check(t, "fs small-file triple", 36, 400, op)
	alloctest.CheckBytes(t, "fs small-file triple", 2048, 400, op)
	if _, err := fs.Fsck(); err != nil {
		t.Fatal(err)
	}
}
