package minixfs

import (
	"encoding/binary"
	"fmt"

	"aru/internal/core"
)

// inode is the decoded form of one inode-table slot.
type inode struct {
	Mode  Mode
	Nlink uint16
	Size  uint64
	List  core.ListID // the file's data list
	MTime uint64      // logical modification time (monotonic counter)
}

// Ino numbers inodes; 0 is invalid and RootIno (1) is the root
// directory.
type Ino uint32

// readInode fetches inode ino, reading through the state of aru.
func (fs *FS) readInode(aru core.ARUID, ino Ino) (inode, error) {
	if ino == 0 || uint32(ino) > fs.super.numInodes {
		return inode{}, fmt.Errorf("%w: inode %d out of range", ErrCorrupt, ino)
	}
	idx := int(ino-1) / fs.perBlk
	off := (int(ino-1) % fs.perBlk) * inodeSize
	buf := fs.inoBuf
	if err := fs.ld.Read(aru, fs.inodeBlocks[idx], buf); err != nil {
		return inode{}, err
	}
	p := buf[off : off+inodeSize]
	return inode{
		Mode:  Mode(binary.LittleEndian.Uint16(p[0:])),
		Nlink: binary.LittleEndian.Uint16(p[2:]),
		Size:  binary.LittleEndian.Uint64(p[8:]),
		List:  core.ListID(binary.LittleEndian.Uint64(p[16:])),
		MTime: binary.LittleEndian.Uint64(p[24:]),
	}, nil
}

// writeInode stores inode ino within the state of aru. The enclosing
// inode-table block is read, modified and rewritten (a read-modify-
// write of one block, as Minix does).
func (fs *FS) writeInode(aru core.ARUID, ino Ino, in inode) error {
	if ino == 0 || uint32(ino) > fs.super.numInodes {
		return fmt.Errorf("%w: inode %d out of range", ErrCorrupt, ino)
	}
	idx := int(ino-1) / fs.perBlk
	off := (int(ino-1) % fs.perBlk) * inodeSize
	buf := fs.inoBuf
	if err := fs.ld.Read(aru, fs.inodeBlocks[idx], buf); err != nil {
		return err
	}
	p := buf[off : off+inodeSize]
	for i := range p {
		p[i] = 0
	}
	binary.LittleEndian.PutUint16(p[0:], uint16(in.Mode))
	binary.LittleEndian.PutUint16(p[2:], in.Nlink)
	binary.LittleEndian.PutUint64(p[8:], in.Size)
	binary.LittleEndian.PutUint64(p[16:], uint64(in.List))
	binary.LittleEndian.PutUint64(p[24:], in.MTime)
	return fs.ld.Write(aru, fs.inodeBlocks[idx], buf)
}

// setBitmap flips the allocation bit of ino within the state of aru.
func (fs *FS) setBitmap(aru core.ARUID, ino Ino, used bool) error {
	bit := int(ino - 1)
	blk := bit / (fs.bsize * 8)
	buf := fs.inoBuf
	if err := fs.ld.Read(aru, fs.metaBlocks[1+blk], buf); err != nil {
		return err
	}
	byteIdx := (bit % (fs.bsize * 8)) / 8
	mask := byte(1) << (bit % 8)
	if used {
		buf[byteIdx] |= mask
	} else {
		buf[byteIdx] &^= mask
	}
	return fs.ld.Write(aru, fs.metaBlocks[1+blk], buf)
}

// allocInode finds a free inode number, marks it used in the bitmap and
// returns it. The search and the bitmap write happen inside aru, so a
// crash before commit allocates nothing.
func (fs *FS) allocInode(aru core.ARUID) (Ino, error) {
	buf := fs.inoBuf
	for blk := 0; blk < int(fs.super.bitmapBlocks); blk++ {
		if err := fs.ld.Read(aru, fs.metaBlocks[1+blk], buf); err != nil {
			return 0, err
		}
		for i, b := range buf {
			if b == 0xff {
				continue
			}
			for bit := 0; bit < 8; bit++ {
				if b&(1<<bit) != 0 {
					continue
				}
				ino := Ino(blk*fs.bsize*8 + i*8 + bit + 1)
				if uint32(ino) > fs.super.numInodes {
					return 0, ErrNoInodes
				}
				buf[i] |= 1 << bit
				if err := fs.ld.Write(aru, fs.metaBlocks[1+blk], buf); err != nil {
					return 0, err
				}
				return ino, nil
			}
		}
	}
	return 0, ErrNoInodes
}

// freeInode clears the inode's bitmap bit and zeroes its table slot.
func (fs *FS) freeInode(aru core.ARUID, ino Ino) error {
	if err := fs.writeInode(aru, ino, inode{}); err != nil {
		return err
	}
	return fs.setBitmap(aru, ino, false)
}

// inodeUsed reports the bitmap state of ino (committed view).
func (fs *FS) inodeUsed(ino Ino) (bool, error) {
	bit := int(ino - 1)
	blk := bit / (fs.bsize * 8)
	buf := fs.inoBuf
	if err := fs.ld.Read(0, fs.metaBlocks[1+blk], buf); err != nil {
		return false, err
	}
	byteIdx := (bit % (fs.bsize * 8)) / 8
	return buf[byteIdx]&(1<<(bit%8)) != 0, nil
}
