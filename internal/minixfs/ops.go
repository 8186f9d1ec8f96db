package minixfs

import (
	"fmt"
	"slices"
	"strings"

	"aru/internal/core"
	"aru/internal/obs"
)

// splitPath normalizes an absolute slash-separated path into its
// components.
func splitPath(path string) []string {
	var out []string
	for _, c := range strings.Split(path, "/") {
		if c != "" {
			out = append(out, c)
		}
	}
	return out
}

// resolve walks path from the root and returns the final inode,
// cutting components off path without building a slice of them. The
// caller must hold fs.mu.
func (fs *FS) resolve(path string) (Ino, inode, error) {
	ino := Ino(RootIno)
	in, err := fs.readInode(0, ino)
	if err != nil {
		return 0, inode{}, err
	}
	for rest := path; rest != ""; {
		var name string
		name, rest, _ = strings.Cut(rest, "/")
		if name == "" {
			continue
		}
		if in.Mode != ModeDir {
			return 0, inode{}, fmt.Errorf("%w: %s", ErrNotDir, path)
		}
		next, _, _, ok, err := fs.dirLookup(0, in, name)
		if err != nil {
			return 0, inode{}, err
		}
		if !ok {
			return 0, inode{}, fmt.Errorf("%w: %s", ErrNotExist, path)
		}
		ino = next
		if in, err = fs.readInode(0, ino); err != nil {
			return 0, inode{}, err
		}
	}
	return ino, in, nil
}

// resolveParent resolves the directory containing the final component
// of path and returns (parent ino, parent inode, final name). The
// parent is the prefix of path before its last separator.
func (fs *FS) resolveParent(path string) (Ino, inode, string, error) {
	trimmed := strings.TrimRight(path, "/")
	if trimmed == "" {
		return 0, inode{}, "", fmt.Errorf("%w: %q has no final component", ErrBadName, path)
	}
	k := strings.LastIndexByte(trimmed, '/')
	name, parent := trimmed[k+1:], trimmed[:k+1]
	if err := validName(name); err != nil {
		return 0, inode{}, "", err
	}
	pIno, pIn, err := fs.resolve(parent)
	if err != nil {
		return 0, inode{}, "", err
	}
	if pIn.Mode != ModeDir {
		return 0, inode{}, "", fmt.Errorf("%w: %s", ErrNotDir, parent)
	}
	return pIno, pIn, name, nil
}

// FileInfo describes a file or directory.
type FileInfo struct {
	Ino   Ino
	Mode  Mode
	Size  uint64
	Nlink uint16
}

// Stat returns metadata for the file or directory at path.
func (fs *FS) Stat(path string) (FileInfo, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, in, err := fs.resolve(path)
	if err != nil {
		return FileInfo{}, err
	}
	return FileInfo{Ino: ino, Mode: in.Mode, Size: in.Size, Nlink: in.Nlink}, nil
}

// createNode allocates an inode and data list for a new file or
// directory and links it into its parent — all within one ARU, so
// after a crash either the node exists with all its meta-data or not
// at all (paper §5.1).
func (fs *FS) createNode(path string, mode Mode) (Ino, error) {
	pIno, pIn, name, err := fs.resolveParent(path)
	if err != nil {
		return 0, err
	}
	if _, _, _, ok, err := fs.dirLookup(0, pIn, name); err != nil {
		return 0, err
	} else if ok {
		return 0, fmt.Errorf("%w: %s", ErrExist, path)
	}

	a, err := fs.ld.BeginARU()
	if err != nil {
		return 0, err
	}
	fail := func(err error) (Ino, error) {
		_ = fs.ld.AbortARU(a)
		return 0, err
	}
	ino, err := fs.allocInode(a)
	if err != nil {
		return fail(err)
	}
	dataList, err := fs.ld.NewList(a)
	if err != nil {
		return fail(err)
	}
	if err := fs.writeInode(a, ino, inode{Mode: mode, Nlink: 1, List: dataList}); err != nil {
		return fail(err)
	}
	if err := fs.dirAddEntry(a, pIno, pIn, name, ino); err != nil {
		return fail(err)
	}
	if err := fs.ld.EndARU(a); err != nil {
		return 0, err
	}
	return ino, nil
}

// Create makes a new empty regular file and returns a handle to it.
func (fs *FS) Create(path string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	defer fs.traceOp().End(0, uint64(obs.FSOpCreate), 0)
	ino, err := fs.createNode(path, ModeFile)
	if err != nil {
		return nil, err
	}
	return fs.openIno(ino)
}

// Mkdir makes a new empty directory.
func (fs *FS) Mkdir(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	defer fs.traceOp().End(0, uint64(obs.FSOpMkdir), 0)
	_, err := fs.createNode(path, ModeDir)
	return err
}

// Remove deletes the regular file at path: the directory entry, the
// inode, its bitmap bit and all data blocks go in one ARU, using the
// configured DeletePolicy for the data blocks.
func (fs *FS) Remove(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	defer fs.traceOp().End(0, uint64(obs.FSOpRemove), 0)
	pIno, pIn, name, err := fs.resolveParent(path)
	if err != nil {
		return err
	}
	ino, blk, slot, ok, err := fs.dirLookup(0, pIn, name)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	in, err := fs.readInode(0, ino)
	if err != nil {
		return err
	}
	if in.Mode == ModeDir {
		return fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	return fs.removeNode(pIno, pIn, ino, in, blk, slot)
}

// Rmdir deletes the empty directory at path.
func (fs *FS) Rmdir(path string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	defer fs.traceOp().End(0, uint64(obs.FSOpRmdir), 0)
	if len(splitPath(path)) == 0 {
		return fmt.Errorf("%w: cannot remove the root directory", ErrBadName)
	}
	pIno, pIn, name, err := fs.resolveParent(path)
	if err != nil {
		return err
	}
	ino, blk, slot, ok, err := fs.dirLookup(0, pIn, name)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, path)
	}
	in, err := fs.readInode(0, ino)
	if err != nil {
		return err
	}
	if in.Mode != ModeDir {
		return fmt.Errorf("%w: %s", ErrNotDir, path)
	}
	empty, err := fs.dirEmpty(0, in)
	if err != nil {
		return err
	}
	if !empty {
		return fmt.Errorf("%w: %s", ErrNotEmpty, path)
	}
	return fs.removeNode(pIno, pIn, ino, in, blk, slot)
}

// removeNode deletes the directory entry at blk/slot in parent pIno and
// drops one link of inode ino, all within one ARU. The inode and its
// data are freed only when the last link goes.
func (fs *FS) removeNode(pIno Ino, pIn inode, ino Ino, in inode, blk core.BlockID, slot int) error {
	a, err := fs.ld.BeginARU()
	if err != nil {
		return err
	}
	fail := func(err error) error {
		_ = fs.ld.AbortARU(a)
		return err
	}
	if err := fs.dirRemoveEntry(a, pIno, pIn, blk, slot); err != nil {
		return fail(err)
	}
	if in.Nlink > 1 {
		in.Nlink--
		if err := fs.writeInode(a, ino, in); err != nil {
			return fail(err)
		}
		return fs.ld.EndARU(a)
	}
	if err := fs.freeInode(a, ino); err != nil {
		return fail(err)
	}
	switch fs.policy {
	case DeleteListFirst:
		// The improved policy (paper "new, delete"): delete the list
		// outright; LLD frees the members from the head without
		// predecessor searches.
		if err := fs.ld.DeleteList(a, in.List); err != nil {
			return fail(err)
		}
	default:
		// The original policy (paper "new"): de-allocate each block,
		// then delete the emptied list. Blocks are freed tail-first —
		// the order Minix's zone walk produced — so every DeleteBlock
		// pays a predecessor search over the remaining list, the cost
		// the paper singles out ("longer lists cause longer
		// predecessor searches", §5.3).
		blocks, err := fs.ld.ListBlocks(a, in.List)
		if err != nil {
			return fail(err)
		}
		for i := len(blocks) - 1; i >= 0; i-- {
			if err := fs.ld.DeleteBlock(a, blocks[i]); err != nil {
				return fail(err)
			}
		}
		if err := fs.ld.DeleteList(a, in.List); err != nil {
			return fail(err)
		}
	}
	return fs.ld.EndARU(a)
}

// Link creates a hard link: newPath becomes a second name for the
// regular file at oldPath. The new directory entry and the link-count
// bump share one ARU, so a crash can never leave the count wrong —
// the kind of multi-structure update ARUs exist for. Directories
// cannot be hard-linked.
func (fs *FS) Link(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	defer fs.traceOp().End(0, uint64(obs.FSOpLink), 0)
	ino, in, err := fs.resolve(oldPath)
	if err != nil {
		return err
	}
	if in.Mode != ModeFile {
		return fmt.Errorf("%w: %s", ErrIsDir, oldPath)
	}
	pIno, pIn, name, err := fs.resolveParent(newPath)
	if err != nil {
		return err
	}
	if _, _, _, exists, err := fs.dirLookup(0, pIn, name); err != nil {
		return err
	} else if exists {
		return fmt.Errorf("%w: %s", ErrExist, newPath)
	}

	a, err := fs.ld.BeginARU()
	if err != nil {
		return err
	}
	fail := func(err error) error {
		_ = fs.ld.AbortARU(a)
		return err
	}
	if err := fs.dirAddEntry(a, pIno, pIn, name, ino); err != nil {
		return fail(err)
	}
	in.Nlink++
	if err := fs.writeInode(a, ino, in); err != nil {
		return fail(err)
	}
	return fs.ld.EndARU(a)
}

// Rename moves the entry oldPath to newPath (which must not exist),
// atomically with respect to failures: both directory updates share
// one ARU. This is the natural extension the ARU mechanism makes
// cheap; classic Minix needed ordering tricks here. A directory cannot
// move into its own subtree: that would unlink it from the tree.
func (fs *FS) Rename(oldPath, newPath string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	defer fs.traceOp().End(0, uint64(obs.FSOpRename), 0)
	oldPIno, oldPIn, oldName, err := fs.resolveParent(oldPath)
	if err != nil {
		return err
	}
	ino, oldBlk, oldSlot, ok, err := fs.dirLookup(0, oldPIn, oldName)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotExist, oldPath)
	}
	// Directories cannot be hard-linked, so a path is its ancestry.
	if oldC, newC := splitPath(oldPath), splitPath(newPath); len(newC) > len(oldC) && slices.Equal(newC[:len(oldC)], oldC) {
		return fmt.Errorf("%w: cannot move %s into its own subtree %s", ErrBadName, oldPath, newPath)
	}
	newPIno, newPIn, newName, err := fs.resolveParent(newPath)
	if err != nil {
		return err
	}
	if _, _, _, exists, err := fs.dirLookup(0, newPIn, newName); err != nil {
		return err
	} else if exists {
		return fmt.Errorf("%w: %s", ErrExist, newPath)
	}

	a, err := fs.ld.BeginARU()
	if err != nil {
		return err
	}
	if err := fs.dirRemoveEntry(a, oldPIno, oldPIn, oldBlk, oldSlot); err != nil {
		_ = fs.ld.AbortARU(a)
		return err
	}
	if err := fs.dirAddEntry(a, newPIno, newPIn, newName, ino); err != nil {
		_ = fs.ld.AbortARU(a)
		return err
	}
	return fs.ld.EndARU(a)
}
