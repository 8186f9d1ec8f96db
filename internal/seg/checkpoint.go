package seg

import (
	"cmp"
	"errors"
	"slices"
)

// BlockRec is the persistent-state record of one logical block, as
// stored in the block-number-map and in checkpoints. It corresponds to
// the paper's block-number-map record: physical address (segment and
// slot), list membership and position (successor), and the timestamp of
// the last write (paper §4, Figure 3).
type BlockRec struct {
	ID   BlockID
	Seg  uint32 // segment holding the current version (if HasData)
	Slot uint32 // data slot within Seg (if HasData)
	Succ BlockID
	List ListID // NilList until the insertion commits (leak-sweep cue)
	TS   uint64 // timestamp of the last committed write/insert
	// HasData reports whether the block has ever been written; an
	// allocated-but-unwritten block reads as zeroes.
	HasData bool
}

// ListRec is the persistent-state record of one block list: its first
// and last member (paper §4, Figure 3 records "First"; the prototype
// also keeps the last block of each list).
type ListRec struct {
	ID    ListID
	First BlockID
	Last  BlockID
	// TS is the timestamp of the last structural change (link/unlink)
	// applied to the list. The live engine does not maintain it; it is
	// the recovery replay's version bound (REDO-only idempotence,
	// DESIGN.md §15).
	TS uint64
}

// Checkpoint is a snapshot of the complete persistent state: what a
// checkpoint chain materializes to (CkptChain.Materialize). LLD writes
// its chains alternately into the two checkpoint regions; recovery loads
// the newest valid one and replays only chunks whose Seq exceeds
// FlushedSeq. (Sprite LFS uses the same double-buffered checkpoint
// scheme; the paper's prototype inherits its log-structured substrate
// from LFS.)
type Checkpoint struct {
	// CkptTS orders checkpoints; recovery picks the largest valid one.
	CkptTS uint64
	// FlushedSeq is the Seq of the last segment written before this
	// checkpoint was taken. Segments with Seq <= FlushedSeq are fully
	// reflected in the tables below.
	FlushedSeq uint64
	// NextTS seeds the logical clock after recovery.
	NextTS uint64
	// NextBlock and NextList seed the identifier allocators (IDs are
	// never reused).
	NextBlock BlockID
	NextList  ListID
	// NextARU seeds the ARU identifier allocator.
	NextARU ARUID
	// Blocks and Lists are the table contents.
	Blocks []BlockRec
	Lists  []ListRec
}

// ErrBadCheckpoint reports a missing or corrupt checkpoint region.
var ErrBadCheckpoint = errors.New("seg: bad checkpoint")

// SortTables puts the checkpoint tables into canonical (ID) order so
// that encodings are deterministic.
func (c *Checkpoint) SortTables() {
	slices.SortFunc(c.Blocks, func(a, b BlockRec) int { return cmp.Compare(a.ID, b.ID) })
	slices.SortFunc(c.Lists, func(a, b ListRec) int { return cmp.Compare(a.ID, b.ID) })
}
