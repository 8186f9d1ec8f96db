package minixfs

import (
	"fmt"
	"io"

	"aru/internal/core"
	"aru/internal/obs"
)

// File is an open handle to a regular file. It caches the file's block
// list (the role Minix's inode block pointers play), so sequential and
// random I/O both address blocks in O(1).
//
// A File is safe for concurrent use; operations through two different
// handles to the same file are serialized by the file system lock but
// may interleave per call, as in Minix.
type File struct {
	fs     *FS
	ino    Ino
	in     inode
	blocks []core.BlockID
}

// Open returns a handle to the regular file at path.
func (fs *FS) Open(path string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	ino, in, err := fs.resolve(path)
	if err != nil {
		return nil, err
	}
	if in.Mode != ModeFile {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	return fs.openIno(ino)
}

// openIno builds a handle; the caller holds fs.mu.
func (fs *FS) openIno(ino Ino) (*File, error) {
	in, err := fs.readInode(0, ino)
	if err != nil {
		return nil, err
	}
	blocks, err := fs.ld.ListBlocks(0, in.List)
	if err != nil {
		return nil, err
	}
	return &File{fs: fs, ino: ino, in: in, blocks: blocks}, nil
}

// Ino returns the file's inode number.
func (f *File) Ino() Ino { return f.ino }

// Size returns the current file size in bytes.
func (f *File) Size() uint64 {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	return f.in.Size
}

// ReadAt reads len(p) bytes at offset off, returning io.EOF at or
// beyond end of file (possibly with a short read).
func (f *File) ReadAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset", ErrBadName)
	}
	if uint64(off) >= f.in.Size {
		return 0, io.EOF
	}
	if max := f.in.Size - uint64(off); uint64(len(p)) > max {
		p = p[:max]
	}
	bs := f.fs.bsize
	buf := f.fs.blkBuf
	n := 0
	for n < len(p) {
		idx := int((off + int64(n)) / int64(bs))
		bOff := int((off + int64(n)) % int64(bs))
		if idx >= len(f.blocks) {
			return n, fmt.Errorf("%w: inode %d size %d exceeds %d data blocks", ErrCorrupt, f.ino, f.in.Size, len(f.blocks))
		}
		if err := f.fs.ld.Read(0, f.blocks[idx], buf); err != nil {
			return n, err
		}
		n += copy(p[n:], buf[bOff:])
	}
	if uint64(off)+uint64(n) >= f.in.Size {
		return n, io.EOF
	}
	return n, nil
}

// WriteAt writes len(p) bytes at offset off, growing the file as
// needed. Data writes are simple (non-ARU) operations, as in the
// paper's MinixLLD, where only meta-data manipulation is bracketed.
func (f *File) WriteAt(p []byte, off int64) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	defer f.fs.traceOp().End(0, uint64(obs.FSOpWrite), 0)
	if off < 0 {
		return 0, fmt.Errorf("%w: negative offset", ErrBadName)
	}
	bs := f.fs.bsize
	buf := f.fs.blkBuf
	n := 0
	for n < len(p) {
		pos := off + int64(n)
		idx := int(pos / int64(bs))
		bOff := int(pos % int64(bs))
		if err := f.growTo(idx); err != nil {
			return n, err
		}
		chunk := bs - bOff
		if rem := len(p) - n; rem < chunk {
			chunk = rem
		}
		b := f.blocks[idx]
		if bOff != 0 || chunk != bs {
			// Partial block: read-modify-write.
			if err := f.fs.ld.Read(0, b, buf); err != nil {
				return n, err
			}
		} else {
			for i := range buf {
				buf[i] = 0
			}
		}
		copy(buf[bOff:], p[n:n+chunk])
		if err := f.fs.ld.Write(0, b, buf); err != nil {
			return n, err
		}
		n += chunk
	}
	if end := uint64(off) + uint64(n); end > f.in.Size {
		f.in.Size = end
		if err := f.fs.writeInode(0, f.ino, f.in); err != nil {
			return n, err
		}
	}
	return n, nil
}

// growTo ensures the file has at least idx+1 data blocks, appending
// fresh blocks at the tail (each append names its predecessor, so LLD
// needs no searches).
func (f *File) growTo(idx int) error {
	for len(f.blocks) <= idx {
		pred := core.NilBlock
		if len(f.blocks) > 0 {
			pred = f.blocks[len(f.blocks)-1]
		}
		b, err := f.fs.ld.NewBlock(0, f.in.List, pred)
		if err != nil {
			return err
		}
		f.blocks = append(f.blocks, b)
	}
	return nil
}

// Truncate sets the file size to size, de-allocating whole blocks
// beyond it. Shrinking runs inside an ARU so size and block
// de-allocations stay atomic.
func (f *File) Truncate(size uint64) error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	defer f.fs.traceOp().End(0, uint64(obs.FSOpTruncate), 0)
	if size >= f.in.Size {
		f.in.Size = size
		return f.fs.writeInode(0, f.ino, f.in)
	}
	keep := int((size + uint64(f.fs.bsize) - 1) / uint64(f.fs.bsize))
	a, err := f.fs.ld.BeginARU()
	if err != nil {
		return err
	}
	for i := len(f.blocks) - 1; i >= keep; i-- {
		if err := f.fs.ld.DeleteBlock(a, f.blocks[i]); err != nil {
			_ = f.fs.ld.AbortARU(a)
			return err
		}
	}
	// Zero the tail block beyond the new size, so a later extension
	// reveals zeroes rather than stale bytes.
	if tail := int(size % uint64(f.fs.bsize)); tail != 0 && keep > 0 {
		buf := f.fs.blkBuf
		if err := f.fs.ld.Read(a, f.blocks[keep-1], buf); err != nil {
			_ = f.fs.ld.AbortARU(a)
			return err
		}
		for i := tail; i < len(buf); i++ {
			buf[i] = 0
		}
		if err := f.fs.ld.Write(a, f.blocks[keep-1], buf); err != nil {
			_ = f.fs.ld.AbortARU(a)
			return err
		}
	}
	newIn := f.in
	newIn.Size = size
	if err := f.fs.writeInode(a, f.ino, newIn); err != nil {
		_ = f.fs.ld.AbortARU(a)
		return err
	}
	if err := f.fs.ld.EndARU(a); err != nil {
		return err
	}
	f.in = newIn
	f.blocks = f.blocks[:keep]
	return nil
}

// ReadAll returns the whole file contents.
func (f *File) ReadAll() ([]byte, error) {
	size := f.Size()
	out := make([]byte, size)
	if size == 0 {
		return out, nil
	}
	_, err := f.ReadAt(out, 0)
	if err == io.EOF {
		err = nil
	}
	return out, err
}
