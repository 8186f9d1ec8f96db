// Package shard composes N independent LLD engines into one logical
// disk with cross-shard atomic recovery units (DESIGN.md §14).
//
// Each shard is a complete engine — its own device, log, checkpoints,
// cleaner and recovery — and identifiers route deterministically:
// external id e lives on shard (e-1) mod N as local id (e-1)/N + 1, so
// the shard of any block or list is computable from the id alone, with
// no directory. A block is always co-located with the list it was
// created in (NewBlock routes to the list's shard); lists spread
// round-robin across shards.
//
// An ARU that touches a single shard commits exactly as before — the
// fast path delegates to that engine's EndARU. A unit that touched
// several shards commits by two-phase commit: every participant engine
// prepares (its data and operations made redoable in its own log,
// sealed by a flush), the coordinator makes one commit record durable
// on a dedicated coordinator log — the commit point — and each
// participant then applies the decision. Crash recovery opens every
// shard with a resolver that consults the coordinator log: an in-doubt
// prepare with a durable commit record is redone, one without is
// erased tracelessly (presumed abort, paper §3.3 across engines).
package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"

	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/ldnet"
	"aru/internal/obs"
)

// Identifier aliases, for readability of the routing arithmetic.
type (
	BlockID = core.BlockID
	ListID  = core.ListID
	ARUID   = core.ARUID
)

// The composition serves the same surfaces as a single engine: any
// ldnet server (and thus aru-serve -shards) can front it directly.
var (
	_ ldnet.Backend       = (*Disk)(nil)
	_ ldnet.TracedBackend = (*Disk)(nil)
)

// Errors of the sharded composition.
var (
	// ErrCrossShardMove reports a MoveBlock whose block and target list
	// live on different shards; membership cannot move between engines.
	ErrCrossShardMove = errors.New("shard: MoveBlock across shards is not supported")
	// ErrShardCount reports a device/shard count mismatch.
	ErrShardCount = errors.New("shard: need at least one shard device")
	// ErrShardMismatch reports a shard set mounted with a different
	// device count or order than it was formatted with. Routing is pure
	// id arithmetic over the device count and position, so such a mount
	// would silently misroute every external id; Format stamps each
	// device (and the coordinator header) with its placement and Open
	// validates it.
	ErrShardMismatch = errors.New("shard: device does not match its formatted shard placement")
)

// Options configures a sharded disk.
type Options struct {
	// Params configures every shard engine identically (one engine per
	// device). Params.CommitResolver is owned by the composition and
	// must be left nil.
	Params core.Params
	// Tracer receives the composition's own events and spans (2PC,
	// coordinator commits); typically the same tracer as
	// Params.Tracer. Nil disables, as everywhere.
	Tracer *obs.Tracer
	// Faults sets the checkers' switches (see FaultHooks). nil — the
	// default, and the only value a production caller can express: the
	// aru facade does not export the type — leaves the composition as
	// designed.
	Faults *FaultHooks
}

// FaultHooks are the switches only the crash-state checker
// (internal/crashenum, `aru-crashcheck`) sets: the deterministic 2PC
// schedule it replays, and the protocol bug its must-fail run exists to
// catch. Never set one in production.
type FaultHooks struct {
	// Sequential runs the prepare, flush and apply fan-outs one shard at
	// a time in shard order instead of concurrently. The deterministic
	// schedule is what the crash-state enumerator replays.
	Sequential bool
	// CommitBeforePrepareSync deliberately breaks the protocol: the
	// coordinator record is made durable *before* the participants
	// flush their prepares. A crash between the coordinator sync and a
	// participant's flush then recovers the unit on some shards and not
	// others (`-inject commit-before-prepare-sync`).
	CommitBeforePrepareSync bool
}

// Stats extends the summed engine counters with the composition's own.
type Stats struct {
	// Engine is the field-wise sum of every shard's core.Stats.
	Engine core.Stats
	// PerShard holds each shard's own counters, in shard order.
	PerShard []core.Stats
	// FastPathCommits counts ARUs that ended on the single-shard fast
	// path (including empty units); CrossShardCommits counts 2PC
	// commits; CrossShardAborts counts aborted multi-shard units.
	FastPathCommits   int64
	CrossShardCommits int64
	CrossShardAborts  int64
	// CoordRecords is the number of live coordinator commit records.
	CoordRecords int64
}

// unit tracks one external ARU: the local ARU it opened on each
// participant shard, in first-touch order (the deterministic 2PC
// order).
type unit struct {
	locals map[int]ARUID
	order  []int
}

// Disk is N LLD engines plus a coordinator log, presented as one
// logical disk. It implements the same client surface as a single
// engine (aru.Interface, ldnet.Backend).
type Disk struct {
	shards []*core.LLD
	every  []int // 0 … N-1: the shards a whole-disk fan-out runs on
	coord  *coordLog
	faults FaultHooks
	tr     *obs.Tracer

	nextTxn atomic.Uint64
	listRR  atomic.Uint64 // round-robin cursor for NewList placement

	mu     sync.Mutex
	units  map[ARUID]*unit
	nextID ARUID
	closed bool

	// ckpt gates cross-shard commits against checkpoint: the 2PC path
	// holds it shared from first prepare to last apply; Checkpoint
	// holds it exclusively across the whole
	// checkpoint-every-shard-then-reset sequence. Without the barrier a
	// full 2PC commit could land between shard i's checkpoint and the
	// coordinator reset — the reset would erase its commit record while
	// its prepare still sat in shard i's post-checkpoint replay window,
	// so a crash would presume-abort the unit on shard i but keep it on
	// a later-checkpointed shard. Fast-path (single-shard) commits and
	// aborts need no gate: they write no prepare and no coordinator
	// record, and an open local ARU that has not prepared has logged
	// nothing an engine checkpoint could cut.
	ckpt sync.RWMutex

	fastCommits  atomic.Int64
	crossCommits atomic.Int64
	crossAborts  atomic.Int64
	// crossApplying counts 2PC units between their coordinator commit
	// point and the end of the apply fan-out: while it is non-zero a
	// multi-shard snapshot cut could straddle the applies, so
	// AcquireSnapshot treats the window as unstable and retries.
	crossApplying atomic.Int64
}

// newDisk returns the composition of n shards over coordinator log c,
// their engines still to be attached.
func newDisk(c *coordLog, o Options, n int) *Disk {
	s := &Disk{coord: c, tr: o.Tracer, units: make(map[ARUID]*unit), every: make([]int, n)}
	if o.Faults != nil {
		s.faults = *o.Faults
	}
	for i := range s.every {
		s.every[i] = i
	}
	return s
}

// shardParams returns the per-engine params for shard i of n: the
// caller's Params with the resolver wired to the coordinator log.
func shardParams(o Options, c *coordLog) core.Params {
	p := o.Params
	p.CommitResolver = c.has
	return p
}

// Format initializes devs[i] as shard i and coordDev as the
// coordinator log, returning a fresh sharded disk. Each device is
// stamped with its shard index and the shard count, validated at Open.
func Format(devs []disk.Disk, coordDev disk.Disk, o Options) (*Disk, error) {
	if len(devs) == 0 {
		return nil, ErrShardCount
	}
	c, err := formatCoord(coordDev, len(devs))
	if err != nil {
		return nil, err
	}
	s := newDisk(c, o, len(devs))
	p := shardParams(o, c)
	for i, dev := range devs {
		d, err := core.Format(dev, p)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		if err := stampShard(dev, i, len(devs)); err != nil {
			return nil, err
		}
		s.shards = append(s.shards, d)
	}
	s.nextTxn.Store(1)
	return s, nil
}

// Open mounts a formatted shard set, running each engine's crash
// recovery with in-doubt prepares resolved against the coordinator
// log.
func Open(devs []disk.Disk, coordDev disk.Disk, o Options) (*Disk, error) {
	d, _, err := OpenReport(devs, coordDev, o)
	return d, err
}

// OpenReport is Open plus each shard's recovery report, in shard
// order.
func OpenReport(devs []disk.Disk, coordDev disk.Disk, o Options) (*Disk, []core.RecoveryReport, error) {
	if len(devs) == 0 {
		return nil, nil, ErrShardCount
	}
	c, err := openCoord(coordDev, len(devs))
	if err != nil {
		return nil, nil, err
	}
	s := newDisk(c, o, len(devs))
	p := shardParams(o, c)
	reports := make([]core.RecoveryReport, len(devs))
	// Shards recover in parallel: each engine owns its device outright,
	// and the only shared state — the coordinator log consulted by the
	// in-doubt resolver — is mutex-protected. In-doubt resolution itself
	// stays a pure read of the already-loaded commit set, so no ordering
	// between shard recoveries matters; the txn floor is folded after
	// the barrier.
	s.shards = make([]*core.LLD, len(devs))
	shardErrs := make([]error, len(devs))
	var wg sync.WaitGroup
	for i, dev := range devs {
		wg.Add(1)
		go func(i int, dev disk.Disk) {
			defer wg.Done()
			idx, cnt, err := readShardStamp(dev)
			if err != nil {
				shardErrs[i] = fmt.Errorf("shard %d: %w", i, err)
				return
			}
			if cnt != len(devs) || idx != i {
				shardErrs[i] = fmt.Errorf("%w: device %d stamped shard %d of %d, mounting as shard %d of %d",
					ErrShardMismatch, i, idx, cnt, i, len(devs))
				return
			}
			d, rpt, err := core.OpenReport(dev, p)
			if err != nil {
				shardErrs[i] = fmt.Errorf("shard %d: %w", i, err)
				return
			}
			s.shards[i] = d
			reports[i] = rpt
		}(i, dev)
	}
	wg.Wait()
	for _, err := range shardErrs {
		if err != nil {
			return nil, nil, err
		}
	}
	maxTxn := c.maxTxn()
	for _, rpt := range reports {
		if rpt.MaxPrepareTxn > maxTxn {
			maxTxn = rpt.MaxPrepareTxn
		}
	}
	// Transaction ids must never repeat while an old id could still sit
	// in a shard's replay window: floor past everything the coordinator
	// or any shard has seen.
	s.nextTxn.Store(maxTxn + 1)
	return s, reports, nil
}

// Each shard device carries a placement stamp in the reserved tail of
// its superblock sector: which shard of how many it was formatted as.
// The stamp sits well past the engine's own superblock encoding (which
// uses the first few dozen bytes of the 512-byte reserved region), so
// the engine never sees it, and it is validated on every Open — a
// reordered or re-counted device set must fail to mount rather than
// silently misroute ids.
const (
	shardStampOff   = 256
	shardStampMagic = "ARUSHRD\x01"
)

// stampShard embeds (index, count) into shard device dev's superblock
// sector, preserving the engine superblock around it.
func stampShard(dev disk.Disk, index, count int) error {
	sec := make([]byte, disk.SectorSize)
	if err := dev.ReadAt(sec, 0); err != nil {
		return fmt.Errorf("shard %d: reading superblock for placement stamp: %w", index, err)
	}
	p := sec[shardStampOff:]
	copy(p, shardStampMagic)
	binary.LittleEndian.PutUint32(p[8:], uint32(index))
	binary.LittleEndian.PutUint32(p[12:], uint32(count))
	binary.LittleEndian.PutUint32(p[16:], crc32.ChecksumIEEE(p[:16]))
	if err := dev.WriteAt(sec, 0); err != nil {
		return fmt.Errorf("shard %d: writing placement stamp: %w", index, err)
	}
	return dev.Sync()
}

// readShardStamp reads and validates the placement stamp of a shard
// device.
func readShardStamp(dev disk.Disk) (index, count int, err error) {
	sec := make([]byte, disk.SectorSize)
	if err := dev.ReadAt(sec, 0); err != nil {
		return 0, 0, err
	}
	p := sec[shardStampOff:]
	if string(p[:8]) != shardStampMagic ||
		crc32.ChecksumIEEE(p[:16]) != binary.LittleEndian.Uint32(p[16:]) {
		return 0, 0, fmt.Errorf("%w: device carries no placement stamp (not formatted as part of a shard set)", ErrShardMismatch)
	}
	return int(binary.LittleEndian.Uint32(p[8:])), int(binary.LittleEndian.Uint32(p[12:])), nil
}

// Shards returns the number of shards.
func (s *Disk) Shards() int { return len(s.shards) }

// Shard returns the i-th underlying engine, for inspection and tests.
func (s *Disk) Shard(i int) *core.LLD { return s.shards[i] }

// Routing: external id e ↔ (shard, local id). The arithmetic is the
// whole directory — both directions are pure functions of the id. It
// is defined on allocated ids only: the zero id (NilBlock/NilList)
// would underflow to shard (2^64-1) mod N, so every routed operation
// rejects it first (checkBlock/checkList).

func (s *Disk) shardOf(e uint64) int    { return int((e - 1) % uint64(len(s.shards))) }
func (s *Disk) localOf(e uint64) uint64 { return (e-1)/uint64(len(s.shards)) + 1 }
func (s *Disk) extOf(local uint64, shard int) uint64 {
	return (local-1)*uint64(len(s.shards)) + uint64(shard) + 1
}

// checkBlock rejects the nil/zero block id before routing.
func checkBlock(b BlockID) error {
	if b == core.NilBlock {
		return fmt.Errorf("%w: %d", core.ErrNoSuchBlock, b)
	}
	return nil
}

// checkList rejects the nil/zero list id before routing.
func checkList(l ListID) error {
	if l == core.NilList {
		return fmt.Errorf("%w: %d", core.ErrNoSuchList, l)
	}
	return nil
}

// ShardOfList returns the shard list l lives on.
func (s *Disk) ShardOfList(l ListID) int { return s.shardOf(uint64(l)) }

// localARU resolves the local ARU to use on shard i for external unit
// aru: Simple stays Simple; a unit opens one local ARU per shard on
// first touch. The bool reports whether the caller may proceed (false:
// the external unit does not exist).
func (s *Disk) localARU(aru ARUID, i int, create bool) (ARUID, error) {
	if aru == core.ARUID(0) {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	u, ok := s.units[aru]
	if !ok {
		return 0, fmt.Errorf("%w: %d", core.ErrNoSuchARU, aru)
	}
	if la, ok := u.locals[i]; ok {
		return la, nil
	}
	if !create {
		// Reads against a shard the unit never touched see the
		// committed state — exactly what the unit itself would see.
		return 0, nil
	}
	la, err := s.shards[i].BeginARU()
	if err != nil {
		return 0, err
	}
	u.locals[i] = la
	u.order = append(u.order, i)
	return la, nil
}

// Read implements the LD surface by routing on the block id.
func (s *Disk) Read(aru ARUID, b BlockID, dst []byte) error {
	if err := checkBlock(b); err != nil {
		return err
	}
	i := s.shardOf(uint64(b))
	la, err := s.localARU(aru, i, false)
	if err != nil {
		return err
	}
	return s.shards[i].Read(la, BlockID(s.localOf(uint64(b))), dst)
}

// Write routes on the block id; a unit's first write to a shard opens
// its local ARU there.
func (s *Disk) Write(aru ARUID, b BlockID, data []byte) error {
	if err := checkBlock(b); err != nil {
		return err
	}
	i := s.shardOf(uint64(b))
	la, err := s.localARU(aru, i, true)
	if err != nil {
		return err
	}
	return s.shards[i].Write(la, BlockID(s.localOf(uint64(b))), data)
}

// NewBlock allocates on the shard of lst (blocks are co-located with
// their list) and returns the external id.
func (s *Disk) NewBlock(aru ARUID, lst ListID, pred BlockID) (BlockID, error) {
	if err := checkList(lst); err != nil {
		return 0, err
	}
	i := s.shardOf(uint64(lst))
	if pred != core.NilBlock && s.shardOf(uint64(pred)) != i {
		return 0, fmt.Errorf("%w: %d", core.ErrNotMember, pred)
	}
	la, err := s.localARU(aru, i, true)
	if err != nil {
		return 0, err
	}
	lp := core.NilBlock
	if pred != core.NilBlock {
		lp = BlockID(s.localOf(uint64(pred)))
	}
	b, err := s.shards[i].NewBlock(la, ListID(s.localOf(uint64(lst))), lp)
	if err != nil {
		return 0, err
	}
	return BlockID(s.extOf(uint64(b), i)), nil
}

// NewList places the list round-robin across shards and returns the
// external id.
func (s *Disk) NewList(aru ARUID) (ListID, error) {
	i := int(s.listRR.Add(1)-1) % len(s.shards)
	la, err := s.localARU(aru, i, true)
	if err != nil {
		return 0, err
	}
	l, err := s.shards[i].NewList(la)
	if err != nil {
		return 0, err
	}
	return ListID(s.extOf(uint64(l), i)), nil
}

// DeleteBlock routes on the block id.
func (s *Disk) DeleteBlock(aru ARUID, b BlockID) error {
	if err := checkBlock(b); err != nil {
		return err
	}
	i := s.shardOf(uint64(b))
	la, err := s.localARU(aru, i, true)
	if err != nil {
		return err
	}
	return s.shards[i].DeleteBlock(la, BlockID(s.localOf(uint64(b))))
}

// DeleteList routes on the list id.
func (s *Disk) DeleteList(aru ARUID, lst ListID) error {
	if err := checkList(lst); err != nil {
		return err
	}
	i := s.shardOf(uint64(lst))
	la, err := s.localARU(aru, i, true)
	if err != nil {
		return err
	}
	return s.shards[i].DeleteList(la, ListID(s.localOf(uint64(lst))))
}

// MoveBlock moves within one shard; a cross-shard move would change
// the block's home engine and is rejected.
func (s *Disk) MoveBlock(aru ARUID, b BlockID, lst ListID, pred BlockID) error {
	if err := checkBlock(b); err != nil {
		return err
	}
	if err := checkList(lst); err != nil {
		return err
	}
	i := s.shardOf(uint64(b))
	if s.shardOf(uint64(lst)) != i {
		return fmt.Errorf("%w: block %d, list %d", ErrCrossShardMove, b, lst)
	}
	if pred != core.NilBlock && s.shardOf(uint64(pred)) != i {
		return fmt.Errorf("%w: %d", core.ErrNotMember, pred)
	}
	la, err := s.localARU(aru, i, true)
	if err != nil {
		return err
	}
	lp := core.NilBlock
	if pred != core.NilBlock {
		lp = BlockID(s.localOf(uint64(pred)))
	}
	return s.shards[i].MoveBlock(la, BlockID(s.localOf(uint64(b))), ListID(s.localOf(uint64(lst))), lp)
}

// ListBlocks routes on the list id and translates the members back to
// external ids.
func (s *Disk) ListBlocks(aru ARUID, lst ListID) ([]BlockID, error) {
	if err := checkList(lst); err != nil {
		return nil, err
	}
	i := s.shardOf(uint64(lst))
	la, err := s.localARU(aru, i, false)
	if err != nil {
		return nil, err
	}
	members, err := s.shards[i].ListBlocks(la, ListID(s.localOf(uint64(lst))))
	if err != nil {
		return nil, err
	}
	for j, b := range members {
		members[j] = BlockID(s.extOf(uint64(b), i))
	}
	return members, nil
}

// Lists fans out to every shard and merges the translated ids in
// ascending external order.
func (s *Disk) Lists(aru ARUID) ([]ListID, error) {
	var out []ListID
	for i, d := range s.shards {
		la, err := s.localARU(aru, i, false)
		if err != nil {
			return nil, err
		}
		lists, err := d.Lists(la)
		if err != nil {
			return nil, err
		}
		for _, l := range lists {
			out = append(out, ListID(s.extOf(uint64(l), i)))
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// StatBlock routes on the block id.
func (s *Disk) StatBlock(aru ARUID, b BlockID) (core.BlockInfo, error) {
	if err := checkBlock(b); err != nil {
		return core.BlockInfo{}, err
	}
	i := s.shardOf(uint64(b))
	la, err := s.localARU(aru, i, false)
	if err != nil {
		return core.BlockInfo{}, err
	}
	info, err := s.shards[i].StatBlock(la, BlockID(s.localOf(uint64(b))))
	if err != nil {
		return core.BlockInfo{}, err
	}
	info.ID = b
	if info.List != core.NilList {
		info.List = ListID(s.extOf(uint64(info.List), i))
	}
	if info.Succ != core.NilBlock {
		info.Succ = BlockID(s.extOf(uint64(info.Succ), i))
	}
	return info, nil
}

// Flush makes every shard's committed state durable. The coordinator
// log needs no flush — its records are synced as they are written.
func (s *Disk) Flush() error { return s.FlushTraced(obs.SpanContext{}) }

// FlushTraced is Flush carrying trace context into each engine.
func (s *Disk) FlushTraced(sc obs.SpanContext) error {
	return s.fanOut(s.every, func(i int) error { return s.shards[i].FlushTraced(sc) })
}

// fanOut runs fn on the shards named by idx — one after another in that
// order under FaultHooks.Sequential or for a single shard, concurrently otherwise —
// and returns the first error (every shard runs regardless).
func (s *Disk) fanOut(idx []int, fn func(i int) error) error {
	if s.faults.Sequential || len(idx) == 1 {
		var first error
		for _, i := range idx {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make(chan error, len(idx))
	for _, i := range idx {
		go func(i int) { errs <- fn(i) }(i)
	}
	var first error
	for range idx {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Checkpoint checkpoints every shard and then resets the coordinator
// log: after every engine checkpointed, no replay window can hold an
// in-doubt prepare, so no recovery will ever ask about the logged
// transactions again. It runs beside open units: the gate below keeps
// prepares out, and a unit that has not prepared has logged nothing a
// checkpoint could cut. Fails (leaving the log intact) if a shard's
// checkpoint fails.
//
// The whole sequence runs under the commit gate held exclusively: no
// engine checkpoint refuses a unit that prepares after it, so without
// the gate a full 2PC commit could land between shard i's checkpoint
// and the reset, whose commit record the reset would then erase while
// shard i's replay window still held the prepare — a crash would
// presume-abort the unit there but keep it on any shard checkpointed
// after the commit.
func (s *Disk) Checkpoint() error {
	s.ckpt.Lock()
	defer s.ckpt.Unlock()
	for i, d := range s.shards {
		if err := d.Checkpoint(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return s.coord.reset()
}

// CheckDisk runs the consistency sweep on every shard, returning the
// total number of leaked blocks freed.
func (s *Disk) CheckDisk() (int, error) {
	total := 0
	for i, d := range s.shards {
		n, err := d.CheckDisk()
		total += n
		if err != nil {
			return total, fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return total, nil
}

// VerifyInternal checks every shard's in-memory invariants.
func (s *Disk) VerifyInternal() error {
	for i, d := range s.shards {
		if err := d.VerifyInternal(); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// Stats returns the field-wise sum of all shard counters (the
// ldnet.Backend surface; ShardStats has the per-shard breakdown).
func (s *Disk) Stats() core.Stats {
	var sum core.Stats
	for _, d := range s.shards {
		addStats(&sum, d.Stats())
	}
	return sum
}

// ShardStats returns the composition's full counter set.
func (s *Disk) ShardStats() Stats {
	st := Stats{
		FastPathCommits:   s.fastCommits.Load(),
		CrossShardCommits: s.crossCommits.Load(),
		CrossShardAborts:  s.crossAborts.Load(),
		CoordRecords:      s.coord.used(),
	}
	for _, d := range s.shards {
		ds := d.Stats()
		st.PerShard = append(st.PerShard, ds)
		addStats(&st.Engine, ds)
	}
	return st
}

// LastBatch returns the largest group-commit batch id across shards
// (the ldnet slow-op log annotation).
func (s *Disk) LastBatch() uint64 {
	var m uint64
	for _, d := range s.shards {
		if b := d.LastBatch(); b > m {
			m = b
		}
	}
	return m
}

// BlockSize returns the (uniform) block size of the shard engines.
func (s *Disk) BlockSize() int { return s.shards[0].BlockSize() }

// Close shuts every shard engine down. Open units are discarded, as
// a crash would (their prepares, if any, resolve by presumed abort).
func (s *Disk) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	var first error
	for _, d := range s.shards {
		if err := d.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// addStats adds every counter of src into dst. core.Stats is int64 fields
// only — ldnet's wire encoding walks it the same way — so the sum keeps up
// with the fields it gains.
func addStats(dst *core.Stats, src core.Stats) {
	dv, sv := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src)
	for i := 0; i < sv.NumField(); i++ {
		dv.Field(i).SetInt(dv.Field(i).Int() + sv.Field(i).Int())
	}
}
