package minixfs

import (
	"fmt"
)

// FsckReport summarizes a consistency scan.
type FsckReport struct {
	InodesUsed   int // bitmap bits set
	FilesFound   int // regular files reachable from the root
	DirsFound    int // directories reachable from the root
	BytesInFiles uint64
}

// Fsck verifies the invariants that the paper argues ARUs make
// self-maintaining (§5.1: "it is thus unnecessary to use fsck after a
// failure"):
//
//  1. every directory entry names an inode whose bitmap bit is set and
//     whose mode is not free;
//  2. every used inode is reachable from the root exactly Nlink times;
//  3. every inode's size is consistent with its data-list length;
//  4. the root is a directory.
//
// It returns a report on success and an error describing the first
// inconsistency found. The crash-recovery tests run Fsck after every
// simulated crash: it must never fail.
func (fs *FS) Fsck() (FsckReport, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()

	var rpt FsckReport
	seen := make(map[Ino]int) // reference counts from directory walks

	root, err := fs.readInode(0, RootIno)
	if err != nil {
		return rpt, err
	}
	if root.Mode != ModeDir {
		return rpt, fmt.Errorf("%w: root inode is not a directory", ErrCorrupt)
	}
	seen[RootIno]++

	// Breadth-first walk of the directory tree.
	queue := []Ino{RootIno}
	visited := make(map[Ino]bool)
	for len(queue) > 0 {
		dIno := queue[0]
		queue = queue[1:]
		if visited[dIno] {
			return rpt, fmt.Errorf("%w: directory cycle through inode %d", ErrCorrupt, dIno)
		}
		visited[dIno] = true
		din, err := fs.readInode(0, dIno)
		if err != nil {
			return rpt, err
		}
		blocks, err := fs.dirBlocks(0, din)
		if err != nil {
			return rpt, fmt.Errorf("directory inode %d: %w", dIno, err)
		}
		buf := fs.blkBuf
		for _, b := range blocks {
			if err := fs.ld.Read(0, b, buf); err != nil {
				return rpt, err
			}
			for s := 0; s < fs.perDir; s++ {
				ino, name := decodeDirent(buf[s*direntSize:])
				if ino == 0 {
					continue
				}
				used, err := fs.inodeUsed(ino)
				if err != nil {
					return rpt, err
				}
				if !used {
					return rpt, fmt.Errorf("%w: entry %q in dir %d names unallocated inode %d", ErrCorrupt, name, dIno, ino)
				}
				in, err := fs.readInode(0, ino)
				if err != nil {
					return rpt, err
				}
				if in.Mode == ModeFree {
					return rpt, fmt.Errorf("%w: entry %q in dir %d names free inode %d", ErrCorrupt, name, dIno, ino)
				}
				seen[ino]++
				if in.Mode == ModeDir {
					queue = append(queue, ino)
				}
			}
		}
	}

	// Cross-check the bitmap against reachability and sizes against
	// data lists.
	for ino := Ino(1); uint32(ino) <= fs.super.numInodes; ino++ {
		used, err := fs.inodeUsed(ino)
		if err != nil {
			return rpt, err
		}
		refs := seen[ino]
		if !used {
			if refs != 0 {
				return rpt, fmt.Errorf("%w: inode %d referenced %d times but not allocated", ErrCorrupt, ino, refs)
			}
			continue
		}
		rpt.InodesUsed++
		in, err := fs.readInode(0, ino)
		if err != nil {
			return rpt, err
		}
		if in.Mode == ModeFree {
			return rpt, fmt.Errorf("%w: inode %d allocated in bitmap but free in table", ErrCorrupt, ino)
		}
		if refs != int(in.Nlink) {
			return rpt, fmt.Errorf("%w: inode %d has nlink %d but %d references", ErrCorrupt, ino, in.Nlink, refs)
		}
		blocks, err := fs.ld.ListBlocks(0, in.List)
		if err != nil {
			return rpt, fmt.Errorf("inode %d data list: %w", ino, err)
		}
		maxSize := uint64(len(blocks)) * uint64(fs.bsize)
		if in.Size > maxSize {
			return rpt, fmt.Errorf("%w: inode %d size %d exceeds %d data blocks", ErrCorrupt, ino, in.Size, len(blocks))
		}
		switch in.Mode {
		case ModeFile:
			rpt.FilesFound++
			rpt.BytesInFiles += in.Size
		case ModeDir:
			rpt.DirsFound++
		}
	}
	return rpt, nil
}
