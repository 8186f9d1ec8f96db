// Package minixfs is a Minix-style file system implemented directly on
// the Logical Disk API, playing the role of the paper's MinixLLD client
// (§5.1): disk management lives entirely in LLD, the file system only
// organizes files.
//
// Layout on the logical disk:
//
//   - a meta list (the first list allocated at mkfs) holding the
//     superblock followed by the inode-allocation bitmap blocks;
//   - an inode list holding the fixed-size inode table;
//   - one list per file or directory holding its data blocks in order
//     (the paper: "MinixLLD uses one list per file").
//
// Directory and file creation and file deletion run inside ARUs,
// bracketing all meta-data updates (inode bitmap, inode table,
// directory contents, directory size) so that after a crash either the
// whole operation is visible or none of it is — the file system needs
// no fsck (the Fsck function exists to *demonstrate* consistency).
//
// All methods are safe for concurrent use; as in the paper, the file
// system provides its own locking above the disk system.
package minixfs

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"aru/internal/core"
)

// DeletePolicy selects how Remove de-allocates file data, mirroring the
// paper's two MinixLLD builds (§5.3).
type DeletePolicy int

const (
	// DeleteBlocksFirst de-allocates every data block individually
	// (each one paying a predecessor search in LLD) and then deletes
	// the emptied list — the paper's "new" build.
	DeleteBlocksFirst DeletePolicy = iota
	// DeleteListFirst deletes the list outright, letting LLD free the
	// blocks from the head without predecessor searches — the paper's
	// improved "new, delete" build.
	DeleteListFirst
)

// String implements fmt.Stringer.
func (p DeletePolicy) String() string {
	switch p {
	case DeleteBlocksFirst:
		return "blocks-first"
	case DeleteListFirst:
		return "list-first"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Mode distinguishes inode types.
type Mode uint16

const (
	// ModeFree marks an unused inode slot.
	ModeFree Mode = iota
	// ModeFile is a regular file.
	ModeFile
	// ModeDir is a directory.
	ModeDir
)

// Errors returned by the file system.
var (
	// ErrNotExist reports a missing path component.
	ErrNotExist = errors.New("minixfs: file does not exist")
	// ErrExist reports a Create/Mkdir of an existing name.
	ErrExist = errors.New("minixfs: file already exists")
	// ErrNotDir reports a non-directory used as a path component.
	ErrNotDir = errors.New("minixfs: not a directory")
	// ErrIsDir reports a file operation on a directory.
	ErrIsDir = errors.New("minixfs: is a directory")
	// ErrNotEmpty reports Rmdir of a non-empty directory.
	ErrNotEmpty = errors.New("minixfs: directory not empty")
	// ErrNoInodes reports inode-table exhaustion.
	ErrNoInodes = errors.New("minixfs: out of inodes")
	// ErrBadName reports an invalid file name.
	ErrBadName = errors.New("minixfs: bad name")
	// ErrCorrupt reports on-disk structures that fail validation.
	ErrCorrupt = errors.New("minixfs: corrupt file system")
)

const (
	fsMagic    = 0x4d4e5846 // "MNXF"
	inodeSize  = 64
	direntSize = 64
	// MaxNameLen is the longest file name Minix-style dirents hold.
	MaxNameLen = direntSize - 9 // ino u64 + nameLen u8
	// RootIno is the inode number of the root directory.
	RootIno = 1
)

// super is the decoded superblock.
type super struct {
	numInodes    uint32
	bitmapBlocks uint32
	inodeList    core.ListID
}

// FS is a mounted Minix-style file system.
type FS struct {
	ld     *core.LLD
	bsize  int
	perBlk int // inodes per inode-table block
	perDir int // dirents per directory block

	mu    sync.Mutex
	clock uint64 // logical mtime source
	// Two block-sized scratch buffers, used only under mu, so that no
	// block step allocates (core.Write copies its input). inoBuf is the
	// inode helpers' (readInode, writeInode, setBitmap, allocInode,
	// inodeUsed); blkBuf holds a directory or file data block. A holder
	// of blkBuf may call the inode helpers, never the reverse.
	inoBuf      []byte
	blkBuf      []byte
	super       super
	metaList    core.ListID    // list holding superblock + bitmap
	metaBlocks  []core.BlockID // superblock + bitmap blocks
	inodeBlocks []core.BlockID // inode-table blocks
	policy      DeletePolicy
}

// Config parameterizes Mkfs.
type Config struct {
	// NumInodes bounds the number of files and directories
	// (default 4096).
	NumInodes int
	// Policy selects the deletion strategy (default DeleteBlocksFirst,
	// the paper's "new" build).
	Policy DeletePolicy
}

// Mkfs formats a file system onto a freshly formatted logical disk and
// returns it mounted. The whole format runs inside a single ARU.
func Mkfs(ld *core.LLD, cfg Config) (*FS, error) {
	if cfg.NumInodes <= 0 {
		cfg.NumInodes = 4096
	}
	fs := newFS(ld, cfg.Policy)
	bitmapBlocks := (cfg.NumInodes + fs.bsize*8 - 1) / (fs.bsize * 8)
	fs.super = super{
		numInodes:    uint32(cfg.NumInodes),
		bitmapBlocks: uint32(bitmapBlocks),
	}

	a, err := ld.BeginARU()
	if err != nil {
		return nil, err
	}
	abort := func(err error) (*FS, error) {
		// Roll the half-built file system back where the variant
		// supports it; a failed mkfs on the sequential variant leaves
		// garbage exactly as the 1993 LLD would.
		_ = ld.AbortARU(a)
		return nil, err
	}

	metaList, err := ld.NewList(a)
	if err != nil {
		return abort(err)
	}
	fs.metaList = metaList
	superBlk, err := ld.NewBlock(a, metaList, core.NilBlock)
	if err != nil {
		return abort(err)
	}
	fs.metaBlocks = []core.BlockID{superBlk}
	pred := superBlk
	for i := 0; i < bitmapBlocks; i++ {
		b, err := ld.NewBlock(a, metaList, pred)
		if err != nil {
			return abort(err)
		}
		fs.metaBlocks = append(fs.metaBlocks, b)
		pred = b
	}

	inodeList, err := ld.NewList(a)
	if err != nil {
		return abort(err)
	}
	fs.super.inodeList = inodeList
	nInodeBlocks := (cfg.NumInodes + fs.perBlk - 1) / fs.perBlk
	pred = core.NilBlock
	for i := 0; i < nInodeBlocks; i++ {
		b, err := ld.NewBlock(a, inodeList, pred)
		if err != nil {
			return abort(err)
		}
		fs.inodeBlocks = append(fs.inodeBlocks, b)
		pred = b
	}

	// Superblock contents.
	sb := fs.blkBuf
	binary.LittleEndian.PutUint32(sb[0:], fsMagic)
	binary.LittleEndian.PutUint32(sb[4:], 1) // version
	binary.LittleEndian.PutUint32(sb[8:], fs.super.numInodes)
	binary.LittleEndian.PutUint32(sb[12:], fs.super.bitmapBlocks)
	binary.LittleEndian.PutUint64(sb[16:], uint64(fs.super.inodeList))
	if err := ld.Write(a, superBlk, sb); err != nil {
		return abort(err)
	}

	// Root directory: inode RootIno plus an empty data list.
	rootList, err := ld.NewList(a)
	if err != nil {
		return abort(err)
	}
	if err := fs.setBitmap(a, RootIno, true); err != nil {
		return abort(err)
	}
	root := inode{Mode: ModeDir, Nlink: 1, List: rootList}
	if err := fs.writeInode(a, RootIno, root); err != nil {
		return abort(err)
	}
	if err := ld.EndARU(a); err != nil {
		return nil, err
	}
	return fs, nil
}

// Mount opens a file system previously created with Mkfs on a freshly
// formatted disk, where the meta list is the first list ever allocated.
// To mount one of several file systems sharing the disk, use MountAt
// with the meta list returned by (*FS).MetaList. The logical disk must
// already be recovered (core.Open).
func Mount(ld *core.LLD, policy DeletePolicy) (*FS, error) {
	lists, err := ld.Lists(0)
	if err != nil {
		return nil, err
	}
	if len(lists) == 0 {
		return nil, fmt.Errorf("%w: no lists on disk", ErrCorrupt)
	}
	return MountAt(ld, policy, lists[0])
}

// MountAt opens the file system whose meta list (superblock + bitmap)
// is metaList. The Logical Disk supports several independent clients on
// one disk (paper §2, §5.1); each file system is self-contained in its
// own lists, addressed through its meta list.
func MountAt(ld *core.LLD, policy DeletePolicy, metaList core.ListID) (*FS, error) {
	fs := newFS(ld, policy)
	fs.metaList = metaList
	meta, err := ld.ListBlocks(0, metaList)
	if err != nil {
		return nil, err
	}
	if len(meta) == 0 {
		return nil, fmt.Errorf("%w: empty meta list", ErrCorrupt)
	}
	sb := fs.blkBuf
	if err := ld.Read(0, meta[0], sb); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(sb[0:]) != fsMagic {
		return nil, fmt.Errorf("%w: bad superblock magic", ErrCorrupt)
	}
	fs.super = super{
		numInodes:    binary.LittleEndian.Uint32(sb[8:]),
		bitmapBlocks: binary.LittleEndian.Uint32(sb[12:]),
		inodeList:    core.ListID(binary.LittleEndian.Uint64(sb[16:])),
	}
	if len(meta) != 1+int(fs.super.bitmapBlocks) {
		return nil, fmt.Errorf("%w: meta list has %d blocks, want %d", ErrCorrupt, len(meta), 1+fs.super.bitmapBlocks)
	}
	fs.metaBlocks = meta
	fs.inodeBlocks, err = ld.ListBlocks(0, fs.super.inodeList)
	if err != nil {
		return nil, err
	}
	want := (int(fs.super.numInodes) + fs.perBlk - 1) / fs.perBlk
	if len(fs.inodeBlocks) != want {
		return nil, fmt.Errorf("%w: inode list has %d blocks, want %d", ErrCorrupt, len(fs.inodeBlocks), want)
	}
	return fs, nil
}

// newFS returns an FS on ld with its geometry and scratch buffers set.
func newFS(ld *core.LLD, policy DeletePolicy) *FS {
	bs := ld.BlockSize()
	return &FS{
		ld:     ld,
		bsize:  bs,
		perBlk: bs / inodeSize,
		perDir: bs / direntSize,
		policy: policy,
		inoBuf: make([]byte, bs),
		blkBuf: make([]byte, bs),
	}
}

// Disk returns the underlying logical disk.
func (fs *FS) Disk() *core.LLD { return fs.ld }

// MetaList returns the LD list holding this file system's superblock
// and bitmap — the handle needed to MountAt it later when several file
// systems share one disk.
func (fs *FS) MetaList() core.ListID { return fs.metaList }

// Policy returns the deletion policy, fixed at Mkfs or mount.
func (fs *FS) Policy() DeletePolicy { return fs.policy }

// Sync flushes all committed file system state to stable storage.
func (fs *FS) Sync() error { return fs.ld.Flush() }

// FSStat reports usage of the file system and its logical disk.
type FSStat struct {
	InodesTotal  int
	InodesUsed   int
	FreeSegments int // reusable log segments on the underlying disk
}

// Statfs returns usage counters: allocated inodes (bitmap scan) and the
// logical disk's reusable segment count.
func (fs *FS) Statfs() (FSStat, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st := FSStat{
		InodesTotal:  int(fs.super.numInodes),
		FreeSegments: fs.ld.FreeSegments(),
	}
	buf := fs.blkBuf
	counted := 0
	for blk := 0; blk < int(fs.super.bitmapBlocks); blk++ {
		if err := fs.ld.Read(0, fs.metaBlocks[1+blk], buf); err != nil {
			return FSStat{}, err
		}
		for _, b := range buf {
			for bit := 0; bit < 8; bit++ {
				if counted >= st.InodesTotal {
					break
				}
				if b&(1<<bit) != 0 {
					st.InodesUsed++
				}
				counted++
			}
		}
	}
	return st, nil
}
