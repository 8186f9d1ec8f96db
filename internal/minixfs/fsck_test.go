package minixfs

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"aru/internal/core"
)

// TestFsckDetectsPlantedCorruption verifies Fsck is not vacuous: each
// planted inconsistency must be reported.
func TestFsckDetectsPlantedCorruption(t *testing.T) {
	t.Run("dangling dirent", func(t *testing.T) {
		fs, _ := newTestFS(t, core.VariantNew, DeleteBlocksFirst)
		f, err := fs.Create("/victim")
		if err != nil {
			t.Fatal(err)
		}
		// Clear the inode's bitmap bit behind the file system's back.
		if err := fs.setBitmap(0, f.Ino(), false); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Fsck(); err == nil {
			t.Fatal("fsck missed a dirent pointing at an unallocated inode")
		}
	})
	t.Run("orphaned inode", func(t *testing.T) {
		fs, _ := newTestFS(t, core.VariantNew, DeleteBlocksFirst)
		f, err := fs.Create("/victim")
		if err != nil {
			t.Fatal(err)
		}
		// Remove the dirent without freeing the inode.
		_, pIn, err := fs.resolve("/")
		if err != nil {
			t.Fatal(err)
		}
		_, blk, slot, ok, err := fs.dirLookup(0, pIn, "victim")
		if err != nil || !ok {
			t.Fatalf("lookup: %v %v", ok, err)
		}
		if err := fs.dirRemoveEntry(0, RootIno, pIn, blk, slot); err != nil {
			t.Fatal(err)
		}
		_ = f
		if _, err := fs.Fsck(); err == nil {
			t.Fatal("fsck missed an allocated inode with no references")
		}
	})
	t.Run("size beyond data", func(t *testing.T) {
		fs, _ := newTestFS(t, core.VariantNew, DeleteBlocksFirst)
		f, err := fs.Create("/victim")
		if err != nil {
			t.Fatal(err)
		}
		in, err := fs.readInode(0, f.Ino())
		if err != nil {
			t.Fatal(err)
		}
		in.Size = 1 << 20 // no data blocks behind it
		if err := fs.writeInode(0, f.Ino(), in); err != nil {
			t.Fatal(err)
		}
		if _, err := fs.Fsck(); err == nil {
			t.Fatal("fsck missed a size larger than the data list")
		}
	})
}

// TestDeletePoliciesEquivalent: both deletion policies must leave the
// identical logical state behind — they differ only in cost.
func TestDeletePoliciesEquivalent(t *testing.T) {
	type state struct {
		files map[string]string
		used  int
	}
	capture := func(fs *FS) state {
		rpt, err := fs.Fsck()
		if err != nil {
			t.Fatal(err)
		}
		out := state{files: make(map[string]string), used: rpt.InodesUsed}
		var walk func(dir string)
		walk = func(dir string) {
			ents, err := fs.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range ents {
				p := dir + "/" + e.Name
				if dir == "/" {
					p = "/" + e.Name
				}
				if e.Mode == ModeDir {
					walk(p)
					continue
				}
				f, err := fs.Open(p)
				if err != nil {
					t.Fatal(err)
				}
				body, err := f.ReadAll()
				if err != nil {
					t.Fatal(err)
				}
				out.files[p] = string(body)
			}
		}
		walk("/")
		return out
	}

	var states []state
	for _, pol := range []DeletePolicy{DeleteBlocksFirst, DeleteListFirst} {
		fs, _ := newTestFS(t, core.VariantNew, pol)
		for i := 0; i < 30; i++ {
			f, err := fs.Create(fmt.Sprintf("/f%02d", i))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteAt(bytes.Repeat([]byte{byte(i)}, 400*(i%7+1)), 0); err != nil {
				t.Fatal(err)
			}
			if i%3 == 2 {
				if err := fs.Remove(fmt.Sprintf("/f%02d", i-1)); err != nil {
					t.Fatal(err)
				}
			}
		}
		states = append(states, capture(fs))
	}
	if !reflect.DeepEqual(states[0], states[1]) {
		t.Fatalf("deletion policies diverged:\nblocks-first: %d files\nlist-first: %d files",
			len(states[0].files), len(states[1].files))
	}
}

// TestInodeExhaustion: running out of inodes fails cleanly and leaves
// the file system consistent (the failed create aborts its ARU).
func TestInodeExhaustion(t *testing.T) {
	fs, _ := newTestFS(t, core.VariantNew, DeleteBlocksFirst)
	var err error
	created := 0
	for i := 0; ; i++ {
		_, err = fs.Create(fmt.Sprintf("/f%04d", i))
		if err != nil {
			break
		}
		created++
	}
	if !errors.Is(err, ErrNoInodes) {
		t.Fatalf("exhaustion error: %v", err)
	}
	if created == 0 {
		t.Fatal("created nothing")
	}
	if _, err := fs.Fsck(); err != nil {
		t.Fatalf("fsck after exhaustion: %v", err)
	}
	// Deleting frees inodes for reuse.
	if err := fs.Remove("/f0000"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/again"); err != nil {
		t.Fatalf("create after free: %v", err)
	}
	// The aborted creates leaked committed-state allocations (lists);
	// the LD-level invariants must still hold.
	if err := fs.Disk().VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFSClients exercises the file system lock with parallel
// creators/deleters in separate directories.
func TestConcurrentFSClients(t *testing.T) {
	fs, _ := newTestFS(t, core.VariantNew, DeleteListFirst)
	const workers = 6
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dir := fmt.Sprintf("/w%d", w)
			if err := fs.Mkdir(dir); err != nil {
				errCh <- err
				return
			}
			for i := 0; i < 20; i++ {
				name := fmt.Sprintf("%s/f%02d", dir, i)
				f, err := fs.Create(name)
				if err != nil {
					errCh <- err
					return
				}
				if _, err := f.WriteAt([]byte(strings.Repeat("x", 100+i)), 0); err != nil {
					errCh <- err
					return
				}
				if i%2 == 1 {
					if err := fs.Remove(fmt.Sprintf("%s/f%02d", dir, i-1)); err != nil {
						errCh <- err
						return
					}
				}
			}
			errCh <- nil
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		if err != nil {
			t.Fatal(err)
		}
	}
	rpt, err := fs.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	if rpt.FilesFound != workers*10 {
		t.Fatalf("found %d files, want %d", rpt.FilesFound, workers*10)
	}
	if err := fs.Disk().VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestPathEdgeCases covers name validation and path handling.
func TestPathEdgeCases(t *testing.T) {
	fs, _ := newTestFS(t, core.VariantNew, DeleteBlocksFirst)
	if _, err := fs.Create("/"); !errors.Is(err, ErrBadName) {
		t.Errorf("create root: %v", err)
	}
	if _, err := fs.Create("/" + strings.Repeat("n", MaxNameLen+1)); !errors.Is(err, ErrBadName) {
		t.Errorf("oversized name: %v", err)
	}
	if _, err := fs.Create("/ok/" + "x"); !errors.Is(err, ErrNotExist) {
		t.Errorf("missing parent: %v", err)
	}
	if _, err := fs.Create("//double//slash"); !errors.Is(err, ErrNotExist) {
		t.Errorf("etc: %v", err)
	}
	if err := fs.Mkdir("/d"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create("/d"); !errors.Is(err, ErrExist) {
		t.Errorf("create over dir: %v", err)
	}
	if _, err := fs.Open("/d"); !errors.Is(err, ErrIsDir) {
		t.Errorf("open dir as file: %v", err)
	}
	if err := fs.Rmdir("/"); !errors.Is(err, ErrBadName) {
		t.Errorf("rmdir root: %v", err)
	}
	if _, err := fs.Create("/d/deep"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Stat("/d/deep"); err != nil {
		t.Fatal(err)
	}
	// A file used as a directory component.
	if _, err := fs.Create("/d/deep/x"); !errors.Is(err, ErrNotDir) {
		t.Errorf("file as dir: %v", err)
	}
}

// TestDirectoryGrowth fills a directory past one block and verifies
// lookup, enumeration and slot reuse.
func TestDirectoryGrowth(t *testing.T) {
	fs, _ := newTestFS(t, core.VariantNew, DeleteListFirst)
	perBlock := fs.bsize / direntSize
	n := perBlock*2 + 5 // three directory blocks
	for i := 0; i < n; i++ {
		if _, err := fs.Create(fmt.Sprintf("/f%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := fs.ReadDir("/")
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != n {
		t.Fatalf("ReadDir found %d, want %d", len(ents), n)
	}
	// Deleting and recreating reuses freed slots without another grow.
	before, _ := fs.Stat("/")
	for i := 0; i < 10; i++ {
		if err := fs.Remove(fmt.Sprintf("/f%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		if _, err := fs.Create(fmt.Sprintf("/g%04d", i)); err != nil {
			t.Fatal(err)
		}
	}
	after, _ := fs.Stat("/")
	if after.Size != before.Size {
		t.Fatalf("directory grew from %d to %d despite free slots", before.Size, after.Size)
	}
	if _, err := fs.Fsck(); err != nil {
		t.Fatal(err)
	}
}

// TestMTimeAdvances verifies the directory inode is touched by creates
// and removes (the Minix behaviour the cost model depends on).
func TestMTimeAdvances(t *testing.T) {
	fs, _ := newTestFS(t, core.VariantNew, DeleteBlocksFirst)
	read := func() uint64 {
		in, err := fs.readInode(0, RootIno)
		if err != nil {
			t.Fatal(err)
		}
		return in.MTime
	}
	m0 := read()
	if _, err := fs.Create("/a"); err != nil {
		t.Fatal(err)
	}
	m1 := read()
	if m1 <= m0 {
		t.Fatalf("create did not advance mtime: %d -> %d", m0, m1)
	}
	if err := fs.Remove("/a"); err != nil {
		t.Fatal(err)
	}
	if m2 := read(); m2 <= m1 {
		t.Fatalf("remove did not advance mtime: %d -> %d", m1, m2)
	}
}
