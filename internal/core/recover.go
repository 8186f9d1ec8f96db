package core

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"aru/internal/disk"
	"aru/internal/obs"
	"aru/internal/seg"
)

// Format initializes dev with the layout in p and returns a fresh LLD.
// It writes the superblock and an empty initial checkpoint; existing
// contents are ignored.
func Format(dev disk.Disk, p Params) (*LLD, error) {
	p = p.withDefaults()
	if err := p.Layout.Validate(); err != nil {
		return nil, fmt.Errorf("lld: %w", err)
	}
	if need := p.Layout.DiskBytes(); dev.Size() < need {
		return nil, fmt.Errorf("%w: layout needs %d bytes, device has %d", ErrBadParam, need, dev.Size())
	}
	if err := dev.WriteAt(seg.EncodeSuper(p.Layout), p.Layout.SuperOff()); err != nil {
		return nil, fmt.Errorf("lld: writing superblock: %w", err)
	}
	ck := seg.CkptRec{Base: true, CkptTS: 1, NextTS: 1, NextBlock: 1, NextList: 1, NextARU: 1}
	buf, err := seg.EncodeCkptRec(p.Layout, ck)
	if err != nil {
		return nil, err
	}
	if err := dev.WriteAt(buf, p.Layout.CkptOff(0)); err != nil {
		return nil, fmt.Errorf("lld: writing initial checkpoint: %w", err)
	}
	// Invalidate region 1 so a stale checkpoint from a previous format
	// cannot win.
	empty := make([]byte, seg.SectorSize)
	if err := dev.WriteAt(empty, p.Layout.CkptOff(1)); err != nil {
		return nil, fmt.Errorf("lld: clearing checkpoint region: %w", err)
	}
	// Wipe every chunk header so images reused across formats do not
	// carry valid-looking chunks from a previous lifetime into the replay
	// window: the trailer of every segment, and below a trailer that heads
	// a stack of chunks, the header of each — a new lifetime repeats the
	// old one's sequence numbers, and a workload repeated with them repeats
	// its headers, under which the old chunks further down would chain.
	wipe := make([]byte, seg.SectorSize)
	sector := make([]byte, seg.SectorSize)
	for s := 0; s < p.Layout.NumSegs; s++ {
		base := p.Layout.SegOff(s)
		chunks, err := walkOnDevice(dev, p.Layout, s, sector)
		if errors.Is(err, seg.ErrBadSegment) {
			chunks = []seg.Chunk{{End: p.Layout.SegBytes}} // the trailer is wiped whatever it holds
		} else if err != nil {
			return nil, fmt.Errorf("lld: reading the chunk headers of segment %d: %w", s, err)
		}
		for _, c := range chunks {
			if err := dev.WriteAt(wipe, base+int64(c.End-seg.SectorSize)); err != nil {
				return nil, fmt.Errorf("lld: wiping segment %d trailer: %w", s, err)
			}
		}
	}
	if err := dev.Sync(); err != nil {
		return nil, err
	}
	return Open(dev, p)
}

// RecoveryReport summarizes what Open reconstructed.
type RecoveryReport struct {
	CheckpointTS     uint64 // CkptTS of the checkpoint recovery started from
	SegmentsReplayed int    // segments holding replayed chunks (chunks beyond the checkpoint)
	EntriesReplayed  int
	ARUsRecovered    int // ARUs whose commit record was durable
	ARUsDropped      int // uncommitted/aborted ARUs discarded
	LeakedFreed      int // blocks freed by the consistency sweep

	// Incremental-checkpoint chain and parallel-scan metrics
	// (DESIGN.md §15).
	ScanWorkers        int // worker-pool size used for the summary scan
	DeltaChainDepth    int // delta records on top of the chain base
	DeltaPagesReplayed int // table records materialized from delta records
	RedoSkipped        int // replay entries skipped by the version-bound guards

	// Two-phase commit resolution (cross-shard ARUs, internal/shard).
	// An in-doubt unit has a durable prepare record but no durable
	// commit or abort record; Params.CommitResolver decides its fate.
	InDoubt          int    // prepared units with no commit/abort record
	InDoubtCommitted int    // in-doubt units the resolver redid
	InDoubtAborted   int    // in-doubt units erased (presumed abort)
	MaxPrepareTxn    uint64 // highest coordinator txn id seen in any prepare record
}

// Open mounts an LLD-formatted device, running crash recovery: it loads
// the newest valid checkpoint, replays the segment summaries beyond it
// (applying only operations whose ARU committed — all-or-nothing per
// ARU), and frees blocks leaked by uncommitted ARUs. Runtime knobs are
// taken from p; the layout always comes from the superblock.
func Open(dev disk.Disk, p Params) (*LLD, error) {
	d, _, err := OpenReport(dev, p)
	return d, err
}

// OpenReport is Open plus a report of what recovery did.
func OpenReport(dev disk.Disk, p Params) (*LLD, RecoveryReport, error) {
	p = p.withDefaults()
	var t0 time.Duration
	if p.Tracer != nil {
		t0 = p.Tracer.Now()
	}
	// Recovery roots its own trace: each replayed segment becomes a
	// child span, so a slow recovery shows *which* segment cost the
	// time (DESIGN.md §13).
	var rtrace, rspan uint64
	if p.Tracer.SpanEnabled() {
		rtrace = p.Tracer.NextID()
		rspan = p.Tracer.NextID()
	}
	sb := make([]byte, seg.SectorSize)
	if err := dev.ReadAt(sb, 0); err != nil {
		return nil, RecoveryReport{}, fmt.Errorf("lld: reading superblock: %w", err)
	}
	layout, err := seg.DecodeSuper(sb)
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	p.Layout = layout

	d := &LLD{
		params:          p,
		obs:             p.Tracer,
		dev:             dev,
		arus:            make(map[ARUID]*aruState),
		builder:         seg.NewBuilder(layout),
		segSeq:          make([]uint64, layout.NumSegs),
		segDataOff:      make([]atomic.Uint32, layout.NumSegs),
		segLive:         make([]int32, layout.NumSegs),
		segPins:         make([]int32, layout.NumSegs),
		cache:           newBlockCache(p.CacheBlocks),
		sealedBySeg:     make(map[uint32]heldSeg),
		reuseQuarantine: make(map[int]int),
		cleanVisited:    make(map[int]bool),
		dirtyBlocks:     make(map[BlockID]struct{}),
		dirtyLists:      make(map[ListID]struct{}),
		segFreeEpoch:    make([]uint64, layout.NumSegs),
	}
	d.setRet(new(retireSet))
	d.gc.cond = sync.NewCond(&d.gc.mu)
	d.devSh, _ = dev.(sharedReader)

	chain, region, err := loadNewestChain(dev, layout)
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	ck := chain.Materialize()
	d.ckptTS = ck.CkptTS
	d.ckptSeq = ck.FlushedSeq
	d.ckptRegion = region
	d.ckptChainOff = chain.NextOff
	d.ckptDepth = chain.Depth()
	d.ckptForceBase = chain.Legacy
	d.ts = ck.NextTS
	d.nextBlk = ck.NextBlock
	d.nextLst = ck.NextList
	d.nextARU = ck.NextARU

	rt := newRecoveryTables(ck)
	rpt := RecoveryReport{CheckpointTS: ck.CkptTS, DeltaChainDepth: chain.Depth()}
	for _, r := range chain.Recs[1:] {
		rpt.DeltaPagesReplayed += len(r.Blocks) + len(r.Lists) + len(r.DelBlocks) + len(r.DelLists)
	}

	// The summary scan: segment trailers — and then the replay-window
	// segments themselves — are read and decoded by a worker pool;
	// replay *application* stays strictly ordered by segment sequence
	// (DESIGN.md §15: ARU commit gating and list-chain surgery are
	// order-sensitive across segments, reads and CRC checks are not).
	workers := p.RecoveryWorkers
	if workers < 1 {
		workers = 1
	}
	if workers > layout.NumSegs {
		workers = layout.NumSegs
	}
	rpt.ScanWorkers = workers
	var sc0 time.Duration
	if d.obs != nil {
		sc0 = d.obs.Now()
	}

	type liveSeg struct {
		idx int
		tr  seg.Trailer
	}
	trailers := make([]seg.Trailer, layout.NumSegs)
	trValid := make([]bool, layout.NumSegs)
	trErrs := make([]error, layout.NumSegs)
	var nextTr atomic.Int64
	var wgTr sync.WaitGroup
	for w := 0; w < workers; w++ {
		wgTr.Add(1)
		go func() {
			defer wgTr.Done()
			buf := make([]byte, seg.SectorSize)
			for {
				s := int(nextTr.Add(1)) - 1
				if s >= layout.NumSegs {
					return
				}
				tr, dataOff, err := readTrailer(dev, layout, s, buf)
				if errors.Is(err, seg.ErrBadSegment) {
					// Never written, wiped or torn — or a chunk no segment
					// of this layout can hold: not part of the log.
					continue
				}
				if err != nil {
					trErrs[s] = err
					continue
				}
				if tr.Format != seg.Chunked {
					d.segDataOff[s].Store(uint32(dataOff))
				}
				trailers[s], trValid[s] = tr, true
			}
		}()
	}
	wgTr.Wait()

	// The replay window. A segment holds a consecutive run of chunk
	// sequence numbers from its trailer's down, and the next run starts in
	// another segment, so the chunks above FlushedSeq lie in the segments
	// whose chunk 1 is above it — and in the one that straddles it: the
	// segment with the largest chunk 1 at or below FlushedSeq, which was
	// open when the checkpoint was taken and went on taking chunks.
	var replay []liveSeg
	maxSeq := ck.FlushedSeq
	straddler := -1
	for s := 0; s < layout.NumSegs; s++ {
		if trErrs[s] != nil {
			return nil, RecoveryReport{}, trErrs[s]
		}
		if !trValid[s] {
			continue
		}
		tr := trailers[s]
		d.segSeq[s] = tr.Seq
		if tr.Seq > maxSeq {
			maxSeq = tr.Seq
		}
		if tr.Seq > ck.FlushedSeq {
			replay = append(replay, liveSeg{idx: s, tr: tr})
		} else if straddler < 0 || tr.Seq > trailers[straddler].Seq {
			straddler = s
		}
	}
	if straddler >= 0 && trailers[straddler].Format == seg.Chunked {
		replay = append(replay, liveSeg{idx: straddler, tr: trailers[straddler]})
	}
	sort.Slice(replay, func(i, j int) bool { return replay[i].tr.Seq < replay[j].tr.Seq })

	// Read + walk + decode every window segment through the pool; apply in
	// sequence order, pipelined — segment k applies while k+1… are
	// still being read. The happens-before edge is the per-slot
	// channel close.
	type chunkScan struct {
		seq     uint64
		entries []seg.Entry
		corrupt bool
	}
	type segScan struct {
		chunks  []chunkScan // the segment's chunks above FlushedSeq
		lastSeq uint64      // seq of its newest chunk
		readErr error
	}
	scans := make([]segScan, len(replay))
	ready := make([]chan struct{}, len(replay))
	for i := range ready {
		ready[i] = make(chan struct{})
	}
	var nextSeg atomic.Int64
	var wgSeg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wgSeg.Add(1)
		go func() {
			defer wgSeg.Done()
			buf := make([]byte, layout.SegBytes)
			for {
				i := int(nextSeg.Add(1)) - 1
				if i >= len(replay) {
					return
				}
				sc, ls := &scans[i], replay[i]
				sc.lastSeq = ls.tr.Seq
				if err := dev.ReadAt(buf, layout.SegOff(ls.idx)); err != nil {
					sc.readErr = fmt.Errorf("lld: reading segment %d: %w", ls.idx, err)
					close(ready[i])
					continue
				}
				// The trailer scan accepted chunk 1, so the walk finds at
				// least that (unless the medium changed underneath us, which
				// leaves the trailer's word: one chunk, corrupt).
				chunks, err := seg.Walk(layout, buf)
				if err != nil {
					chunks = []seg.Chunk{{Trailer: ls.tr, End: layout.SegBytes}}
				}
				for _, c := range chunks {
					sc.lastSeq = c.Seq
					if c.Seq <= ck.FlushedSeq {
						continue // the checkpoint covers it
					}
					entries, err := seg.DecodeEntriesFromSegment(buf[:c.End], c.Trailer)
					if err != nil {
						// A valid header over a corrupt entry region. A torn
						// rewrite does leave that behind — the new chunk's
						// prefix over the old entries, the old header intact
						// — but only at or below FlushedSeq, outside this
						// window: a segment is reused only once a durable
						// checkpoint covers its newest chunk (segFreeable;
						// pinned by rewriteAboveWatermark in reuse_test.go).
						// Inside the window it means the medium failed
						// underneath us.
						sc.chunks = append(sc.chunks, chunkScan{seq: c.Seq, corrupt: true})
						continue
					}
					// A sealed chunk groups its entries by region —
					// operations, then writes, then commit records —
					// not by time. Replay must see them in timestamp
					// order, the order the live engine produced the
					// effects: otherwise a commit record's buffered
					// operations would apply after inline operations
					// issued later than the commit, and the redo
					// version bounds would mistake that late-arriving
					// surgery for surgery already redone. The stable
					// sort keeps region order for equal stamps, which
					// is per-unit issue order.
					slices.SortStableFunc(entries, func(a, b seg.Entry) int {
						return cmp.Compare(a.TS, b.TS)
					})
					sc.chunks = append(sc.chunks, chunkScan{seq: c.Seq, entries: entries})
				}
				close(ready[i])
			}
		}()
	}
	// Chunks are sealed with consecutive seqs, so the chunks above the
	// checkpoint must be a contiguous run starting right after it. A hole
	// means the device lost or reordered an un-synced chunk write:
	// everything past the hole was never acknowledged durable (a completed
	// Sync would have made the missing chunk whole) and may causally
	// depend on it — replaying it could surface a partial ARU. Cut there,
	// and at a chunk whose entries do not decode. (Found by the
	// crash-state enumerator, internal/crashenum.) The segments past the
	// cut are still walked: their chunks' sequence numbers must not be
	// handed out again.
	droppedTail := false
	expect := ck.FlushedSeq + 1
	segsReplayed := 0
	var scanErr error
	for i, ls := range replay {
		<-ready[i]
		sc := &scans[i]
		if sc.readErr != nil {
			scanErr = sc.readErr
			break
		}
		d.segSeq[ls.idx] = sc.lastSeq
		if sc.lastSeq > maxSeq {
			maxSeq = sc.lastSeq
		}
		var st0 time.Duration
		if rspan != 0 {
			st0 = d.obs.Now()
		}
		entries, chunks := 0, 0
		for _, c := range sc.chunks {
			if droppedTail {
				break
			}
			if c.seq != expect || c.corrupt {
				droppedTail = true
				break
			}
			expect++
			for _, e := range c.entries {
				rt.apply(e, uint32(ls.idx))
			}
			entries += len(c.entries)
			chunks++
		}
		if chunks == 0 {
			continue
		}
		segsReplayed++
		rpt.EntriesReplayed += entries
		d.obs.Emit(obs.EvRecoverySeg, 0, uint64(ls.idx), uint64(entries))
		if rspan != 0 {
			d.obs.EmitSpan(obs.Span{
				Trace: rtrace, ID: d.obs.NextID(), Parent: rspan,
				Kind: obs.SpanRecoverySeg, Start: st0, Dur: d.obs.Now() - st0,
				Arg1: uint64(ls.idx), Arg2: uint64(entries),
			})
		}
	}
	wgSeg.Wait()
	if scanErr != nil {
		return nil, RecoveryReport{}, scanErr
	}
	if d.obs != nil {
		d.obs.ObserveSince(obs.HistRecoveryScan, sc0)
		d.obs.Emit(obs.EvRecoveryScan, 0, uint64(workers), uint64(segsReplayed))
		if rspan != 0 {
			d.obs.EmitSpan(obs.Span{
				Trace: rtrace, ID: d.obs.NextID(), Parent: rspan,
				Kind: obs.SpanRecoveryScan, Start: sc0, Dur: d.obs.Now() - sc0,
				Arg1: uint64(workers), Arg2: uint64(segsReplayed),
			})
		}
	}
	rt.resolveInDoubt(p.CommitResolver, &rpt)
	rpt.RedoSkipped = rt.skipped
	rpt.SegmentsReplayed = segsReplayed
	rpt.ARUsRecovered = rt.committed
	rpt.ARUsDropped = len(rt.pending)
	d.stats.RecoveredEntries.Store(int64(rpt.EntriesReplayed))
	d.stats.RecoveredARUs.Store(int64(rpt.ARUsRecovered))
	d.stats.DroppedARUs.Store(int64(rpt.ARUsDropped))

	// Install the reconstructed tables straight into the tries. Every
	// leaf is born in the first window, so the sweep below edits them in
	// place, and the one publish at the end exposes them all.
	for id, rec := range rt.blocks {
		lf := d.blockTab.create(d.epoch+1, uint64(id))
		lf.hasPersist, lf.persist = true, *rec
		if rec.HasData {
			d.segLive[rec.Seg]++
		}
		if id >= d.nextBlk {
			d.nextBlk = id + 1
		}
	}
	for id, rec := range rt.lists {
		lf := d.listTab.create(d.epoch+1, uint64(id))
		lf.hasPersist, lf.persist = true, *rec
		if id >= d.nextLst {
			d.nextLst = id + 1
		}
	}
	// Every identifier the replay touched differs (or may differ) from
	// what the on-disk chain head covers: it must ride in the next
	// delta record, or an incremental checkpoint taken after recovery
	// would silently drop the replayed effects.
	for id := range rt.touchedB {
		d.dirtyBlocks[id] = struct{}{}
	}
	for id := range rt.touchedL {
		d.dirtyLists[id] = struct{}{}
	}
	if rt.maxTS >= d.ts {
		d.ts = rt.maxTS + 1
	}
	if rt.maxARU >= d.nextARU {
		d.nextARU = rt.maxARU + 1
	}
	d.nextSeq = maxSeq + 1
	d.durableTS = d.ts - 1

	// Pick the open segment now if one is available; a completely full
	// disk still mounts (for reading and deleting) and defers the pick
	// to the first operation that needs log space.
	if cur, err := d.pickSeg(); err == nil {
		d.curSeg = cur
	} else if errors.Is(err, ErrNoSpace) {
		d.curSeg = -1
	} else {
		return nil, RecoveryReport{}, err
	}
	d.freeCache = d.reusableCount()

	// If the log tail was cut (seq hole or corrupt entry region), stale
	// valid-looking trailers beyond the cut still sit on the medium.
	// Future seals reuse their seq numbers only above maxSeq, so a later
	// recovery from the *old* checkpoint would walk into the same hole —
	// and cut off everything this incarnation writes. Seal the window
	// now with a fresh checkpoint so the dropped segments can never
	// re-enter a replay window.
	if droppedTail {
		if err := d.checkpointLocked(); err != nil && !errors.Is(err, ErrNoSpace) {
			return nil, RecoveryReport{}, fmt.Errorf("lld: sealing cut log tail: %w", err)
		}
	}

	freed, err := d.checkLocked()
	if err != nil {
		// The sweep is best-effort: on a full disk there may be no
		// log space to record the frees; the blocks stay leaked
		// until space exists and CheckDisk is run again.
		if !errors.Is(err, ErrNoSpace) {
			return nil, RecoveryReport{}, err
		}
	} else {
		rpt.LeakedFreed = freed
	}
	if p.Faults != nil && p.Faults.RecoveryProbe != nil {
		// Test instrumentation: the head is still nil here, so a probe
		// exercising the read path observes how mid-replay reads fail.
		p.Faults.RecoveryProbe(d)
	}
	// Publish the first epoch, so lock-free readers have a head before
	// the first client operation.
	d.publishLocked()

	if d.obs != nil {
		d.obs.ObserveSince(obs.HistRecovery, t0)
		d.obs.Emit(obs.EvRecoveryDone, 0, uint64(rpt.EntriesReplayed), uint64(rpt.ARUsRecovered))
		if rspan != 0 {
			d.obs.EmitSpan(obs.Span{
				Trace: rtrace, ID: rspan,
				Kind: obs.SpanRecovery, Start: t0, Dur: d.obs.Now() - t0,
				Arg1: uint64(rpt.EntriesReplayed), Arg2: uint64(rpt.ARUsRecovered),
			})
		}
	}
	return d, rpt, nil
}

// readTrailer reads segment s's trailer sector into sector and returns
// the trailer and the offset of the segment's data area it implies. An
// error wrapping seg.ErrBadSegment means the device holds no valid
// segment there; any other is the device's.
func readTrailer(dev disk.Disk, l seg.Layout, s int, sector []byte) (seg.Trailer, int, error) {
	if err := dev.ReadAt(sector, l.SegOff(s)+int64(l.SegBytes-seg.SectorSize)); err != nil {
		return seg.Trailer{}, 0, fmt.Errorf("lld: reading trailer of segment %d: %w", s, err)
	}
	tr, err := seg.DecodeTrailer(sector)
	if err != nil {
		return seg.Trailer{}, 0, err
	}
	dataOff, err := tr.DataOff(l)
	return tr, dataOff, err
}

// walkOnDevice walks the chunks of segment s on the device, fetching one
// header sector at a time into sector. An error wrapping seg.ErrBadSegment
// means the device holds no valid segment there; any other is the
// device's.
func walkOnDevice(dev disk.Disk, l seg.Layout, s int, sector []byte) ([]seg.Chunk, error) {
	base := l.SegOff(s)
	return seg.WalkSectors(l, func(off int) ([]byte, error) {
		return sector, dev.ReadAt(sector, base+int64(off))
	})
}

// loadNewestChain decodes both checkpoint regions as incremental
// chains (a legacy v1 snapshot decodes as a one-record chain) and
// returns the one whose head record is newest, with its region index.
// It reads the records a chain holds, not the region reserved for them.
// A region whose chain is torn still contributes its valid prefix: a
// shorter chain only means more segments to replay, never corruption.
func loadNewestChain(dev disk.Disk, layout seg.Layout) (seg.CkptChain, int, error) {
	var (
		best       seg.CkptChain
		bestRegion = -1
	)
	for i := 0; i < 2; i++ {
		c, err := seg.ReadCkptChain(layout.CkptRegionBytes(), func(p []byte, off int64) error {
			return dev.ReadAt(p, layout.CkptOff(i)+off)
		})
		if err != nil {
			if errors.Is(err, seg.ErrBadCheckpoint) {
				continue
			}
			return seg.CkptChain{}, 0, fmt.Errorf("lld: reading checkpoint region %d: %w", i, err)
		}
		if bestRegion < 0 || c.Head().CkptTS > best.Head().CkptTS {
			best, bestRegion = c, i
		}
	}
	if bestRegion < 0 {
		return seg.CkptChain{}, 0, fmt.Errorf("%w: no valid checkpoint region", seg.ErrBadCheckpoint)
	}
	return best, bestRegion, nil
}

// recoveryTables reconstructs the persistent state from a checkpoint
// plus a summary replay. Operations tagged with an ARU are buffered and
// applied — at the commit record's timestamp — only when the commit
// record is reached; everything else is discarded (paper §3.3:
// "recovery is always to the most recent persistent version").
//
// Replay is REDO-only and idempotent: every applied operation carries
// a version bound (the block's write timestamp, the list's structural
// timestamp), and an operation at or below the bound already in the
// tables is skipped rather than re-derived. Re-running any prefix of
// the redo stream over already-recovered tables is therefore a no-op —
// a re-crash mid-recovery just makes the next redo shorter
// (DESIGN.md §15).
type recoveryTables struct {
	blocks map[BlockID]*seg.BlockRec
	lists  map[ListID]*seg.ListRec

	pending   map[ARUID][]pendingOp
	prepared  map[ARUID]prepRec // prepare record seen, fate undecided
	committed int
	maxTS     uint64
	maxARU    ARUID
	fallbacks int
	skipped   int // redo operations skipped by the version-bound guards

	// touchedB and touchedL name every identifier the replay modified
	// or deleted — the recovered engine's initial dirty sets, so the
	// first post-recovery delta checkpoint carries the replayed
	// effects.
	touchedB map[BlockID]struct{}
	touchedL map[ListID]struct{}
}

type pendingOp struct {
	e   seg.Entry
	seg uint32
}

// prepRec is one durable prepare record awaiting resolution: the
// coordinator transaction it belongs to and the prepare timestamp the
// unit's operations apply at if the coordinator committed.
type prepRec struct {
	txn uint64
	ts  uint64
}

func newRecoveryTables(ck seg.Checkpoint) *recoveryTables {
	rt := &recoveryTables{
		blocks:   make(map[BlockID]*seg.BlockRec, len(ck.Blocks)),
		lists:    make(map[ListID]*seg.ListRec, len(ck.Lists)),
		pending:  make(map[ARUID][]pendingOp),
		prepared: make(map[ARUID]prepRec),
		touchedB: make(map[BlockID]struct{}),
		touchedL: make(map[ListID]struct{}),
	}
	for i := range ck.Blocks {
		r := ck.Blocks[i]
		rt.blocks[r.ID] = &r
	}
	for i := range ck.Lists {
		r := ck.Lists[i]
		rt.lists[r.ID] = &r
	}
	return rt
}

// apply processes one summary entry found in segment segIdx.
func (rt *recoveryTables) apply(e seg.Entry, segIdx uint32) {
	if e.TS > rt.maxTS {
		rt.maxTS = e.TS
	}
	if e.ARU > rt.maxARU {
		rt.maxARU = e.ARU
	}
	switch e.Kind {
	case seg.KindNewBlock, seg.KindNewList:
		// Allocations are unconditional, even inside an ARU (§3.3).
		rt.applyNow(e, segIdx, e.TS)
	case seg.KindCommit:
		ops := rt.pending[e.ARU]
		delete(rt.pending, e.ARU)
		delete(rt.prepared, e.ARU)
		for _, op := range ops {
			rt.applyNow(op.e, op.seg, e.TS)
		}
		rt.committed++
	case seg.KindAbort:
		delete(rt.pending, e.ARU)
		delete(rt.prepared, e.ARU)
	case seg.KindPrepare:
		// The unit is complete and durable but its fate belongs to the
		// coordinator transaction; keep the buffered operations and
		// resolve at end of scan (resolveInDoubt).
		rt.prepared[e.ARU] = prepRec{txn: e.Txn, ts: e.TS}
	default:
		if e.ARU != seg.SimpleARU {
			rt.pending[e.ARU] = append(rt.pending[e.ARU], pendingOp{e: e, seg: segIdx})
			return
		}
		rt.applyNow(e, segIdx, e.TS)
	}
}

// resolveInDoubt decides the fate of every prepared unit whose commit
// or abort record did not survive the crash, in prepare-timestamp
// order. resolve (Params.CommitResolver, typically backed by the
// shard coordinator log) returning true redoes the unit at its prepare
// timestamp; false — or a nil resolver — presumes abort and leaves the
// unit's buffered operations to be dropped with the other uncommitted
// units, so an aborted cross-shard ARU stays as traceless as a local
// one (§3.3).
func (rt *recoveryTables) resolveInDoubt(resolve func(txn uint64) bool, rpt *RecoveryReport) {
	if len(rt.prepared) == 0 {
		return
	}
	type doubt struct {
		aru ARUID
		pr  prepRec
	}
	doubts := make([]doubt, 0, len(rt.prepared))
	for a, pr := range rt.prepared {
		doubts = append(doubts, doubt{aru: a, pr: pr})
	}
	sort.Slice(doubts, func(i, j int) bool { return doubts[i].pr.ts < doubts[j].pr.ts })
	for _, dt := range doubts {
		rpt.InDoubt++
		if dt.pr.txn > rpt.MaxPrepareTxn {
			rpt.MaxPrepareTxn = dt.pr.txn
		}
		if resolve != nil && resolve(dt.pr.txn) {
			ops := rt.pending[dt.aru]
			delete(rt.pending, dt.aru)
			for _, op := range ops {
				rt.applyNow(op.e, op.seg, dt.pr.ts)
			}
			rt.committed++
			rpt.InDoubtCommitted++
		} else {
			// Presumed abort: the operations stay in rt.pending and are
			// dropped wholesale (counted in ARUsDropped); allocations
			// were unconditional and fall to the leak sweep.
			rpt.InDoubtAborted++
		}
	}
}

// applyNow applies one entry at effective time ts, under the REDO
// version bounds: an effect the tables already hold at a timestamp at
// or past ts is never re-derived.
func (rt *recoveryTables) applyNow(e seg.Entry, segIdx uint32, ts uint64) {
	switch e.Kind {
	case seg.KindNewBlock:
		if r, ok := rt.blocks[e.Block]; ok && r.TS >= ts {
			// Identifiers are never reused, so an existing record at or
			// past ts means this allocation was already redone;
			// re-applying would wipe the block's physical address.
			rt.skipped++
			return
		}
		rt.blocks[e.Block] = &seg.BlockRec{ID: e.Block, TS: ts}
		rt.touchedB[e.Block] = struct{}{}
	case seg.KindNewList:
		if l, ok := rt.lists[e.List]; ok && l.TS >= ts {
			rt.skipped++
			return
		}
		rt.lists[e.List] = &seg.ListRec{ID: e.List, TS: ts}
		rt.touchedL[e.List] = struct{}{}
	case seg.KindWrite:
		r, ok := rt.blocks[e.Block]
		if !ok {
			// A write to a block that no longer exists indicates a
			// client race that resolved to deletion. Drop it.
			rt.fallbacks++
			return
		}
		if r.HasData && r.TS > ts {
			// Writes apply in timestamp order, not log order: a later
			// unit's already-committed version can be materialized at
			// an earlier log position than the commit record that
			// applies an earlier unit's buffered write.
			rt.fallbacks++
			return
		}
		if r.HasData && r.TS == ts && r.Seg == segIdx && r.Slot == e.Slot {
			rt.skipped++ // exact re-apply of an already-redone write
			return
		}
		r.Seg = segIdx
		r.Slot = e.Slot
		r.HasData = true
		r.TS = ts
		rt.touchedB[e.Block] = struct{}{}
	case seg.KindDeleteBlock:
		delete(rt.blocks, e.Block)
		rt.touchedB[e.Block] = struct{}{}
	case seg.KindDeleteList:
		delete(rt.lists, e.List)
		rt.touchedL[e.List] = struct{}{}
	case seg.KindLink:
		rt.applyLink(e, ts)
	case seg.KindUnlink:
		rt.applyUnlink(e, ts)
	}
}

func (rt *recoveryTables) applyLink(e seg.Entry, ts uint64) {
	l, ok := rt.lists[e.List]
	if !ok {
		rt.fallbacks++
		return
	}
	b, ok := rt.blocks[e.Block]
	if !ok {
		rt.fallbacks++
		return
	}
	// Structural version bound: list surgery applies in nondecreasing
	// commit-timestamp order, so a link at or below the list's
	// structural clock was already redone. At exactly the clock (one
	// unit's operations all apply at its commit timestamp), membership
	// disambiguates: the block already being on the list means this
	// very link applied.
	if l.TS > ts || (l.TS == ts && b.List == e.List) {
		rt.skipped++
		return
	}
	pred := e.Pred
	if pred != seg.NilBlock {
		p, ok := rt.blocks[pred]
		if !ok || p.List != e.List {
			rt.fallbacks++
			pred = seg.NilBlock
		}
	}
	if pred == seg.NilBlock {
		b.Succ = l.First
		l.First = e.Block
		if l.Last == seg.NilBlock {
			l.Last = e.Block
		}
	} else {
		p := rt.blocks[pred]
		b.Succ = p.Succ
		p.Succ = e.Block
		p.TS = ts
		if l.Last == pred {
			l.Last = e.Block
		}
	}
	b.List = e.List
	b.TS = ts
	l.TS = ts
	rt.touchedB[e.Block] = struct{}{}
	rt.touchedL[e.List] = struct{}{}
	if pred != seg.NilBlock {
		rt.touchedB[pred] = struct{}{}
	}
}

func (rt *recoveryTables) applyUnlink(e seg.Entry, ts uint64) {
	l, ok := rt.lists[e.List]
	if !ok {
		rt.fallbacks++
		return
	}
	b, ok := rt.blocks[e.Block]
	if !ok {
		rt.fallbacks++
		return
	}
	// Structural version bound, mirroring applyLink: at exactly the
	// list's clock, the block already being *off* the list means this
	// unlink applied.
	if l.TS > ts || (l.TS == ts && b.List != e.List) {
		rt.skipped++
		return
	}
	// Find the predecessor in the reconstructed chain.
	pred := seg.NilBlock
	for cur := l.First; cur != seg.NilBlock && cur != e.Block; {
		p, ok := rt.blocks[cur]
		if !ok {
			rt.fallbacks++
			return
		}
		pred = cur
		cur = p.Succ
	}
	if pred == seg.NilBlock {
		if l.First != e.Block {
			rt.fallbacks++
			return
		}
		l.First = b.Succ
	} else {
		p := rt.blocks[pred]
		p.Succ = b.Succ
		p.TS = ts
	}
	if l.Last == e.Block {
		l.Last = pred
	}
	b.Succ = seg.NilBlock
	b.List = seg.NilList
	b.TS = ts
	l.TS = ts
	rt.touchedB[e.Block] = struct{}{}
	rt.touchedL[e.List] = struct{}{}
	if pred != seg.NilBlock {
		rt.touchedB[pred] = struct{}{}
	}
}
