// Package core implements LLD, the log-structured Logical Disk, with
// concurrent atomic recovery units (ARUs) — the contribution of
// "Atomic Recovery Units: Failure Atomicity for Logical Disks"
// (Grimm, Hsieh, Kaashoek, de Jonge; ICDCS 1996).
//
// # Model
//
// The Logical Disk presents disk storage as logical blocks arranged
// into ordered lists. Clients allocate blocks within lists
// (NewBlock), write and read them (Write/Read), and de-allocate blocks
// and lists (DeleteBlock/DeleteList). Flush forces all committed state
// to stable storage.
//
// An atomic recovery unit brackets several of these operations between
// BeginARU and EndARU; after a failure either all or none of them are
// persistent. ARUs provide failure atomicity only: no isolation (each
// ARU sees its own shadow state, per the paper's third read-semantics
// option) and no durability (EndARU does not flush).
//
// Every block and list exists in up to n+2 versions for n active ARUs:
// one shadow version per ARU that touched it, one committed version,
// and one persistent version. Version lookup always searches shadow →
// committed → persistent. Allocation (NewBlock/NewList) is the single
// exception: identifiers are handed out in the committed state even
// inside an ARU, so concurrent ARUs can never allocate the same
// identifier; only the insertion into a list is shadowed.
//
// # Concurrency
//
// All exported methods are safe for concurrent use. The hot read-only
// operations — Read, ListBlocks, Lists and StatBlock in the committed
// view — take no lock at all: every mutation a simple reader could see
// publishes an immutable copy-on-write snapshot of the block-map,
// list-table and open-ARU set behind a single atomic epoch-head pointer,
// and a reader pins the current epoch with one atomic load plus a
// refcount increment (snapshot.go, DESIGN.md §16). Mutating operations
// serialize behind the engine lock and swing the head at their
// completion point, except BeginARU and in-unit shadow edits, whose
// publish waits for a read in the unit's view (or Stats, or
// AcquireSnapshot), which takes the lock to publish it; the inspection
// helpers (VerifyInternal, FreeSegments, Params, …) take the lock too.
// As in the paper, the disk system performs no concurrency control
// between clients: two ARUs may update the same block and the commit
// order decides.
// Clients that need isolation must lock above the LD interface.
package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"aru/internal/disk"
	"aru/internal/obs"
	"aru/internal/seg"
)

// Re-exported identifier types; the on-disk format package owns them.
type (
	// BlockID names a logical disk block.
	BlockID = seg.BlockID
	// ListID names a logical block list.
	ListID = seg.ListID
	// ARUID names an atomic recovery unit.
	ARUID = seg.ARUID
)

// Nil identifiers.
const (
	NilBlock = seg.NilBlock
	NilList  = seg.NilList
)

// Variant selects which LLD build the engine behaves as, mirroring
// Table 1 of the paper.
type Variant int

const (
	// VariantNew is the paper's prototype: concurrent ARUs with
	// per-ARU shadow states and a list-operation log replayed at
	// commit.
	VariantNew Variant = iota
	// VariantOld is the original 1993 LLD: ARUs are sequential (at
	// most one open at a time) and operations inside an ARU execute
	// directly in the committed state — no shadow records, no
	// list-operation log, no commit-time replay. Recovery atomicity
	// still holds because summary entries are tagged with the ARU.
	VariantOld
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case VariantNew:
		return "new"
	case VariantOld:
		return "old"
	default:
		return fmt.Sprintf("variant(%d)", int(v))
	}
}

// Params configures an LLD instance. The zero value of optional fields
// selects documented defaults.
type Params struct {
	// Layout is the disk format geometry (required; see seg.Layout).
	Layout seg.Layout
	// Variant selects the concurrent-ARU prototype (default) or the
	// sequential-ARU baseline.
	Variant Variant
	// CheckpointEvery writes a table checkpoint after this many
	// segments were filled and retired (default 32; negative disables
	// automatic checkpoints).
	CheckpointEvery int
	// CkptCompactEvery bounds the incremental checkpoint chain: once
	// this many delta records sit on top of the base, the next
	// checkpoint compacts the chain into a fresh full base in the
	// other region (default 8; negative writes a full base every
	// time, i.e. disables incremental checkpoints). A chain whose
	// region runs out of room compacts early regardless.
	CkptCompactEvery int
	// CleanerLowWater triggers cleaning when the number of reusable
	// segments drops below it (default 8); cleaning then runs until
	// that many are reusable again.
	CleanerLowWater int
	// CacheBlocks is the read-cache capacity in blocks (default 1024;
	// negative disables the cache).
	CacheBlocks int
	// ReadSemantics selects which of the paper's three Read-visibility
	// options (§3.3) Read provides (default ReadOwnShadow, the
	// prototype's choice). It affects Read only; structure lookups
	// (ListBlocks, StatBlock) always resolve through the issuing
	// stream's own state.
	ReadSemantics ReadSemantics
	// Tracer attaches an observability sink (span ring + latency
	// histograms; see aru/internal/obs). nil — the default — disables
	// all instrumentation: hot paths then pay a single nil-check. One
	// Tracer may be shared across instances (e.g. crash/recover
	// generations accumulate into the same histograms), and embedding
	// applications record their own spans into the same Tracer.
	Tracer *obs.Tracer

	// CommitResolver decides the fate of in-doubt prepared ARUs found
	// during recovery (units whose KindPrepare record is durable but
	// whose commit/abort record is not): recovery calls it with the
	// prepare's coordinator transaction id and redoes the unit when it
	// returns true, erases it otherwise (presumed abort). nil presumes
	// abort for every in-doubt unit — correct for an unsharded engine,
	// which never prepares. internal/shard passes a resolver backed by
	// its coordinator log.
	CommitResolver func(txn uint64) bool

	// Faults plants deliberate engine bugs and probes for the checkers'
	// self-tests (see FaultHooks). nil — the default, and the only value
	// a production caller can express: the aru facade does not export
	// the type — leaves the engine as designed.
	Faults *FaultHooks
}

// FaultHooks are the deliberate bugs and probes with which the
// crash-state checker (internal/crashenum, `aru-crashcheck -inject`)
// and the linearizability checker (internal/linearize) prove that they
// catch violations. Never set one in production.
type FaultHooks struct {
	// NoSyncOnFlush makes every durability point — a group-commit batch,
	// a maintenance round or pickSeg's locked flush — skip its device
	// sync while still reporting the commits it covers as durable
	// (`-inject nosync`).
	NoSyncOnFlush bool
	// AckBeforeSync is the classic broken broker: the batch leader wakes
	// its waiters without the device sync having run (`-inject
	// ack-early`). Maintenance rounds still sync.
	AckBeforeSync bool
	// TornDeltaPublish makes the checkpoint writer skip the publish
	// barrier: the chain record is written but the checkpoint watermark
	// (which unlocks segment reuse) advances without waiting for the
	// record to be durable, so a crash can lose the record after a
	// replay-window segment was already rewritten (`-inject
	// torn-delta`).
	TornDeltaPublish bool
	// UntaggedReplay makes EndARU write the unit's replay entries
	// without their ARU tag, so recovery applies them unconditionally
	// instead of gating them on the commit record (`-inject
	// untagged-replay`).
	UntaggedReplay bool
	// StaleHeadEvery, when n > 0, silently drops every n-th epoch
	// publish that carries a commit, so lock-free readers keep being
	// served the previous snapshot past the commit's completion — the
	// stale-read bug internal/linearize must catch.
	StaleHeadEvery int
	// RecoveryProbe is invoked by Open once per mount, after the crash
	// image's tables are rebuilt but before the first epoch publish. The
	// crash-state checker uses it to assert that reads during replay
	// fail cleanly (the snapshot head does not exist yet, so
	// AcquireSnapshot must return ErrClosed). The probe may only call
	// AcquireSnapshot/OpenSnapshots — the engine is mid-construction and
	// nothing else is safe to touch.
	RecoveryProbe func(d *LLD)
}

func (p Params) withDefaults() Params {
	if p.CheckpointEvery == 0 {
		p.CheckpointEvery = 32
	}
	if p.CkptCompactEvery == 0 {
		p.CkptCompactEvery = 8
	}
	if p.CleanerLowWater == 0 {
		p.CleanerLowWater = 8
	}
	if p.CacheBlocks == 0 {
		p.CacheBlocks = 1024
	}
	return p
}

// Errors returned by the LD interface.
var (
	// ErrNoSuchBlock reports an operation on an unallocated block.
	ErrNoSuchBlock = errors.New("lld: no such block")
	// ErrNoSuchList reports an operation on an unallocated list.
	ErrNoSuchList = errors.New("lld: no such list")
	// ErrNoSuchARU reports an operation naming an unknown or already
	// ended ARU.
	ErrNoSuchARU = errors.New("lld: no such ARU")
	// ErrARUActive reports a second BeginARU on the sequential-ARU variant,
	// and a checkpoint refused while a sequential or prepared unit is open.
	ErrARUActive = errors.New("lld: an ARU is already active (sequential variant)")
	// ErrNotMember reports a list operation whose block is not a
	// member of the named list (in the operating view).
	ErrNotMember = errors.New("lld: block is not a member of the list")
	// ErrNoSpace reports that the log is out of reusable segments and
	// cleaning could not free any.
	ErrNoSpace = errors.New("lld: out of disk space")
	// ErrAbortUnsupported reports AbortARU on the sequential variant,
	// which applies operations in place and cannot roll back.
	ErrAbortUnsupported = errors.New("lld: AbortARU is not supported by the sequential variant")
	// ErrARUPrepared reports an operation on an ARU frozen by
	// PrepareARU: a prepared unit accepts only CommitPrepared or
	// AbortARU (two-phase commit, internal/shard).
	ErrARUPrepared = errors.New("lld: ARU is prepared")
	// ErrPrepareUnsupported reports PrepareARU on the sequential
	// variant, which cannot freeze a unit (its operations already ran
	// in the committed state).
	ErrPrepareUnsupported = errors.New("lld: PrepareARU is not supported by the sequential variant")
	// ErrClosed reports use after Close.
	ErrClosed = errors.New("lld: closed")
	// ErrBadParam reports invalid arguments.
	ErrBadParam = errors.New("lld: bad parameter")
)

// Stats holds operation counters for one LLD instance; the fields
// tagged `metric:"gauge"` are current levels, exported as gauges. A
// sharded disk (internal/shard) sums every field across its shards, so
// there its gauges are totals across shards.
type Stats struct {
	Reads, Writes int64 // block reads / writes
	// CoalescedWrites counted writes absorbed in place in the open
	// segment. Nothing has incremented it since the MVCC read path (a
	// write always installs a fresh buffer, ops.go); it stays because the
	// benchmark reports it.
	CoalescedWrites            int64
	NewBlocks, DeleteBlocks    int64
	NewLists, DeleteLists      int64
	ARUsBegun, ARUsCommitted   int64
	ARUsAborted                int64
	ARUsPrepared               int64 // PrepareARU calls (2PC participants)
	SegmentsWritten            int64 // segments written to disk (counted at their first chunk)
	ChunksWritten              int64 // chunks written to disk: the log's device writes
	SegmentBytesWritten        int64 // bytes of chunks written to disk
	SegmentsCleaned            int64 // segments reclaimed by the cleaner
	BlocksRelocated            int64 // live blocks copied by the cleaner
	Checkpoints                int64
	CkptDeltas                 int64 // checkpoints written as incremental deltas
	MergeFallbacks             int64 // commit-replay inserts whose predecessor vanished
	LeakedBlocksFreed          int64 // blocks freed by the consistency sweep
	ShadowRecords, AltRecords  int64 `metric:"gauge"` // current alternative-record counts (shadow / all)
	ShadowCreated              int64 // shadow records ever created
	CommittedCreated           int64 // committed alternative records ever created
	RecordsPromoted            int64 // committed→persistent transitions
	BlocksMaterialized         int64 // buffered versions written into segments at seal
	PrevVersionsEmitted        int64 // stashed pre-unit versions written at seal
	ListOpsReplayed            int64 // list-operation log records re-executed at commit
	MovesExecuted              int64 // MoveBlock operations
	CacheHits, CacheMisses     int64
	CacheFillAllocs            int64 // reader cache fills that found the reserve empty and allocated
	PredecessorSearchSteps     int64 // total steps of predecessor searches
	EntriesLogged              int64 // summary entries appended
	RecoveredEntries           int64 // summary entries replayed at recovery
	RecoveredARUs, DroppedARUs int64 // committed / discarded ARUs at recovery
	Flushes                    int64 // Flush calls (durability requests)
	CommitBatches              int64 // group-commit batches that wrote segments
	BatchedCommits             int64 // commit records made durable via batches
	EpochsPublished            int64 // MVCC epochs published (head swings)
	SnapshotsPurged            int64 // retired epochs drained and recycled
	PurgeRetries               int64 // purge sweeps stopped by a pinned epoch
	SnapshotAge                int64 `metric:"gauge"` // current − oldest live epoch
}

// LLD is a log-structured logical disk with atomic recovery units.
// Create instances with Format (fresh disk) or Open (recovery).
type LLD struct {
	params Params
	dev    disk.Disk

	// obs is the observability sink from Params.Tracer (nil =
	// disabled). Immutable after construction, so it may be read
	// without holding mu; the Tracer itself is internally lock-free.
	obs *obs.Tracer

	// commitStamps records, for each commit record queued by EndARU,
	// when it was queued; the stamps leave with the seal that emits the
	// records and are drained into the EndARU-to-durable histogram when
	// a device sync covers it (retire). Guarded by mu; only populated
	// when obs is non-nil.
	commitStamps []commitStamp

	// mu guards all engine state below. Mutating operations and the
	// inspection helpers (VerifyInternal, FreeSegments, Params, …) take
	// it; the hot read-only operations (Read, ListBlocks, Lists,
	// StatBlock, Stats) take no lock at all — they pin the epoch head.
	// See DESIGN.md §7 and §16.
	mu sync.Mutex
	// Everything below is guarded by mu.
	closed bool
	stats  Stats // the counters; live holds the four advanced off mu

	ts      uint64 // logical clock: timestamp of the next operation
	nextBlk BlockID
	nextLst ListID
	nextARU ARUID

	// The paper's block-number-map and list-table: per identifier, the
	// persistent record and every alternative version, in the tries
	// lock-free readers share through the epoch head (records.go).
	blockTab table[seg.BlockRec]
	listTab  table[seg.ListRec]

	// Committed state: the identifiers that have a committed version
	// (the merged stream's same-state chain), newest last.
	commBlocks []BlockID
	commLists  []ListID

	// Active ARUs (shadow states), and how many of them are prepared.
	arus      map[ARUID]*aruState
	nPrepared int

	// Log state. builder holds the open segment: the chunks sealed into it
	// so far and the open chunk below them. bldEpoch is d.epoch when it
	// became the open builder: while the two are equal no published
	// snapshot has named it (retireBuilder).
	builder  *seg.Builder
	bldEpoch uint64
	// commBufBlocks counts committed-state versions whose contents are
	// still in memory; they materialize into the open segment at seal
	// time and therefore reserve capacity in it.
	commBufBlocks int
	// pendingCommits holds the commit records of ended ARUs, in commit
	// order. They are emitted at seal time, after all buffered data
	// has materialized, so a unit's data and its commit record always
	// land in the same (atomic) segment: commits within one open-
	// segment window persist as a group, which is exactly the
	// granularity at which anything persists.
	pendingCommits []seg.Entry
	curSeg         int    // segment index the builder's chunks are written to
	nextSeq        uint64 // seq for the next sealed chunk
	durableTS      uint64 // all entries with TS <= durableTS are on disk
	ckptSeq        uint64 // FlushedSeq of the newest durable checkpoint
	ckptTS         uint64 // CkptTS of the newest record written or attempted
	segsSinceC     int    // segments retired since the last checkpoint

	// Incremental checkpoint chain state (DESIGN.md §15). The current
	// chain (one base + ckptDepth deltas) lives in region ckptRegion;
	// the next delta appends at ckptChainOff. Compaction writes a
	// fresh base into the other region and flips ckptRegion.
	ckptRegion   int
	ckptChainOff int64
	ckptDepth    int
	ckptBase     bool // a record failed after taking the dirty sets: the next is a base
	// dirtyBlocks and dirtyLists collect the identifiers whose persistent
	// records changed (or were deleted) since the last checkpoint —
	// exactly the upserts/deletions the next delta record carries. They
	// are appended to at every persistent-state mutation (promoteBlock,
	// promoteList, recovery replay), repeats and all, and sorted and
	// compacted when the delta is gathered (dirtySet).
	dirtyBlocks dirtySet[BlockID]
	dirtyLists  dirtySet[ListID]

	// Per-segment accounting.
	// segSeq is the seq of each segment's newest chunk (0 = never
	// written). A mount learns it from the chunks it walks; for a segment
	// outside the replay window it takes chunk 1's, which is on the same
	// side of every checkpoint watermark this incarnation can have.
	segSeq  []uint64
	segLive []int32 // live persistent blocks per segment
	// segOwn[s] is segment s's owner table: the block whose persistent
	// version lies at each of its slots (ownIdx), NilBlock where none
	// does — the live blocks the cleaner relocates, without a walk of the
	// block map. A segment holds a table exactly while segLive counts a
	// block in it: the last block to leave puts the table, zeroed, on
	// freeOwn, and the first to arrive takes one back (addLive, dropLive).
	segOwn  [][]BlockID
	freeOwn freeList[[]BlockID]
	segPins []int32 // alternative records holding data in the segment
	// free holds, unordered and each once, exactly the segments
	// segFreeable holds of. A segment enters where an input of the
	// predicate changes (enterFree) and leaves only when pickSeg opens it.
	free []int
	// segFreeSeq[s] is the seq of the seal whose promotion emptied segment
	// s: s stays quarantined from reuse until that entry retires
	// (segReusable).
	segFreeSeq []uint64
	cache      *blockCache

	// Durability (DESIGN.md §11). gc has its own internal mutex and is
	// the only field here touched without d.mu; everything else below is
	// guarded by d.mu like the rest of the struct.
	gc commitBroker
	// sealed queues, in seal (seq) order, every sealed chunk no device
	// sync has covered yet: entries awaiting their device write, then
	// written ones awaiting a sync. It is the one record of that wait
	// (heldBuilder and segReusable read it).
	sealed []*sealedSeg
	// spareBuilders pools retired segment builders for double
	// buffering: a retired segment keeps its builder until its chunks are
	// written and the log continues on a spare.
	spareBuilders freeList[*seg.Builder]
	// Batch/sync causality counters (DESIGN.md §13): batchSeq numbers
	// group-commit batches, syncSeq the device syncs that retired sealed
	// segments (every durable ack names its sync). Guarded by mu;
	// lastBatch mirrors the newest completed batch id atomically so
	// lock-free readers (the server's slow-op log) can attribute work.
	batchSeq  uint64
	syncSeq   uint64
	lastBatch atomic.Uint64

	// Free lists for steady-state churn (see pool.go for the ownership
	// rules). All guarded by d.mu; gcWork is touched only by the single
	// in-flight batch leader, which extends its use across the device
	// I/O it performs with d.mu released.
	freeBufs   freeList[[]byte]
	spareNodes freeList[*bufNode] // reader hand-off nodes between the displaced list and the reserve
	freeStates freeList[*aruState]
	spareSeals freeList[*sealedSeg]
	freeSnaps  freeList[*snapshot] // drained epochs, each with its emptied retire-set
	matScratch []matItem
	// Cleaner scratch kept across rounds: the victims relocated in the
	// current round, pickVictim's candidate segments and the identifiers
	// of the victim being relocated.
	cleanVisited map[int]bool
	cleanCands   []int
	cleanIDs     []BlockID
	gcWork       []*sealedSeg

	// MVCC epoch state (snapshot.go, DESIGN.md §16). head is the only
	// field lock-free readers load; everything else is guarded by mu
	// except the atomics noted.
	head        atomic.Pointer[snapshot]
	live        liveStats
	devSh       sharedReader // dev's lock-free read interface, if any
	snapOldest  *snapshot    // oldest retired-but-undrained epoch
	epoch       uint64       // epoch number of the current head
	oldestEpoch atomic.Uint64
	invalid     atomic.Bool // set by Invalidate (crash simulation)
	openSnaps   atomic.Int64
	// aruTab mirrors d.arus for lock-free readers: which ARUs are open,
	// and which of them are frozen by PrepareARU.
	aruTab table[aruMark]
	// ret accumulates everything the current window unshared (the
	// tables retire into it, see setRet): the head epoch's own set, or
	// the bootstrap set until the first publish.
	ret *retireSet
	// segFreeEpoch[s] is the epoch that must drain before segment s
	// may be rewritten: stamped d.epoch+1 whenever a reference into s
	// is dropped, because snapshots up to the next publish may still
	// read s's old bytes (see segReusable).
	segFreeEpoch []uint64
	pubSkip      int  // FaultHooks.StaleHeadEvery counter
	pubSafe      bool // in a maintenance round: a segment pick may publish
	// pubDefer marks the running operation shadow-only (deferPublish);
	// pubPending says such an operation's edits await a publish, which
	// clears it only after the head swing (publishPending).
	pubDefer   bool
	pubPending atomic.Bool
}
