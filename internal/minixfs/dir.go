package minixfs

import (
	"encoding/binary"
	"fmt"
	"strings"

	"aru/internal/core"
)

// DirEntry is one directory entry as returned by ReadDir.
type DirEntry struct {
	Name string
	Ino  Ino
	Mode Mode
}

// direntIno returns the inode named by slot p (direntSize bytes); 0
// means a free slot.
func direntIno(p []byte) Ino { return Ino(binary.LittleEndian.Uint64(p[0:])) }

// direntName returns the name bytes of slot p, in place.
func direntName(p []byte) []byte {
	n := int(p[8])
	if n > MaxNameLen {
		n = MaxNameLen
	}
	return p[9 : 9+n]
}

// decodeDirent decodes slot p; a zero inode means a free slot.
func decodeDirent(p []byte) (Ino, string) {
	ino := direntIno(p)
	if ino == 0 {
		return 0, ""
	}
	return ino, string(direntName(p))
}

// encodeDirent writes (ino, name) into slot p.
func encodeDirent(p []byte, ino Ino, name string) {
	for i := range p {
		p[i] = 0
	}
	binary.LittleEndian.PutUint64(p[0:], uint64(ino))
	p[8] = byte(len(name))
	copy(p[9:], name)
}

// validName rejects empty, oversized, and separator-containing names.
func validName(name string) error {
	if name == "" || len(name) > MaxNameLen ||
		strings.ContainsRune(name, '/') || name == "." || name == ".." {
		return fmt.Errorf("%w: %q", ErrBadName, name)
	}
	return nil
}

// dirBlocks returns the data blocks of directory inode in, viewed
// through aru.
func (fs *FS) dirBlocks(aru core.ARUID, in inode) ([]core.BlockID, error) {
	return fs.ld.ListBlocks(aru, in.List)
}

// dirLookup scans directory din for name, returning the entry's inode
// and its location (block, slot). ok is false if absent.
func (fs *FS) dirLookup(aru core.ARUID, din inode, name string) (ino Ino, blk core.BlockID, slot int, ok bool, err error) {
	blocks, err := fs.dirBlocks(aru, din)
	if err != nil {
		return 0, 0, 0, false, err
	}
	buf := fs.blkBuf
	for _, b := range blocks {
		if err := fs.ld.Read(aru, b, buf); err != nil {
			return 0, 0, 0, false, err
		}
		for s := 0; s < fs.perDir; s++ {
			p := buf[s*direntSize:]
			// The conversion in the comparison does not allocate.
			if eIno := direntIno(p); eIno != 0 && string(direntName(p)) == name {
				return eIno, b, s, true, nil
			}
		}
	}
	return 0, 0, 0, false, nil
}

// dirAddEntry inserts (name → ino) into directory dIno (inode din),
// within aru: it reuses a free slot or appends a fresh directory block.
// The directory inode is rewritten with a fresh modification time (and
// new size if the directory grew), as Minix does on every create.
func (fs *FS) dirAddEntry(aru core.ARUID, dIno Ino, din inode, name string, ino Ino) error {
	blocks, err := fs.dirBlocks(aru, din)
	if err != nil {
		return err
	}
	buf := fs.blkBuf
	wrote := false
	for _, b := range blocks {
		if err := fs.ld.Read(aru, b, buf); err != nil {
			return err
		}
		for s := 0; s < fs.perDir; s++ {
			if direntIno(buf[s*direntSize:]) == 0 {
				encodeDirent(buf[s*direntSize:(s+1)*direntSize], ino, name)
				if err := fs.ld.Write(aru, b, buf); err != nil {
					return err
				}
				wrote = true
				break
			}
		}
		if wrote {
			break
		}
	}
	if !wrote {
		// All slots full: grow the directory by one block.
		pred := core.NilBlock
		if len(blocks) > 0 {
			pred = blocks[len(blocks)-1]
		}
		nb, err := fs.ld.NewBlock(aru, din.List, pred)
		if err != nil {
			return err
		}
		for i := range buf {
			buf[i] = 0
		}
		encodeDirent(buf[0:direntSize], ino, name)
		if err := fs.ld.Write(aru, nb, buf); err != nil {
			return err
		}
		din.Size += uint64(fs.bsize)
	}
	din.MTime = fs.tickClock()
	return fs.writeInode(aru, dIno, din)
}

// dirRemoveEntry clears the dirent at (blk, slot) of directory dIno and
// rewrites the directory inode with a fresh modification time, as Minix
// does on every unlink.
func (fs *FS) dirRemoveEntry(aru core.ARUID, dIno Ino, din inode, blk core.BlockID, slot int) error {
	buf := fs.blkBuf
	if err := fs.ld.Read(aru, blk, buf); err != nil {
		return err
	}
	p := buf[slot*direntSize : (slot+1)*direntSize]
	for i := range p {
		p[i] = 0
	}
	if err := fs.ld.Write(aru, blk, buf); err != nil {
		return err
	}
	din.MTime = fs.tickClock()
	return fs.writeInode(aru, dIno, din)
}

// tickClock returns a fresh logical modification time. The caller holds
// fs.mu.
func (fs *FS) tickClock() uint64 {
	fs.clock++
	return fs.clock
}

// dirEmpty reports whether directory din holds no entries.
func (fs *FS) dirEmpty(aru core.ARUID, din inode) (bool, error) {
	blocks, err := fs.dirBlocks(aru, din)
	if err != nil {
		return false, err
	}
	buf := fs.blkBuf
	for _, b := range blocks {
		if err := fs.ld.Read(aru, b, buf); err != nil {
			return false, err
		}
		for s := 0; s < fs.perDir; s++ {
			if direntIno(buf[s*direntSize:]) != 0 {
				return false, nil
			}
		}
	}
	return true, nil
}

// ReadDir lists the entries of the directory at path, in storage order.
func (fs *FS) ReadDir(path string) ([]DirEntry, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	_, in, err := fs.resolve(path)
	if err != nil {
		return nil, err
	}
	if in.Mode != ModeDir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, path)
	}
	blocks, err := fs.dirBlocks(0, in)
	if err != nil {
		return nil, err
	}
	var out []DirEntry
	buf := fs.blkBuf
	for _, b := range blocks {
		if err := fs.ld.Read(0, b, buf); err != nil {
			return nil, err
		}
		for s := 0; s < fs.perDir; s++ {
			ino, name := decodeDirent(buf[s*direntSize:])
			if ino == 0 {
				continue
			}
			ein, err := fs.readInode(0, ino)
			if err != nil {
				return nil, err
			}
			out = append(out, DirEntry{Name: name, Ino: ino, Mode: ein.Mode})
		}
	}
	return out, nil
}
