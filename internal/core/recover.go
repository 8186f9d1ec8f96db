package core

import (
	"cmp"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
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
	// CkptTS orders chain records and links a delta to its predecessor, so
	// it grows across lifetimes of a device too: a record an earlier one
	// left in a region must not link to this one's base.
	var ts uint64
	for i := 0; i < 2; i++ {
		if c, err := readChain(dev, p.Layout, i); err == nil {
			ts = max(ts, c.Head().CkptTS)
		}
	}
	ck := seg.CkptRec{Base: true, CkptTS: ts + 1, NextTS: 1, NextBlock: 1, NextList: 1, NextARU: 1}
	buf, err := seg.EncodeCkptRec(p.Layout, ck)
	if err != nil {
		return nil, err
	}
	if err := dev.WriteAt(buf, p.Layout.CkptOff(0)); err != nil {
		return nil, fmt.Errorf("lld: writing initial checkpoint: %w", err)
	}
	// Invalidate region 1 so a stale checkpoint from a previous format
	// cannot win.
	wipe := make([]byte, seg.SectorSize)
	if err := dev.WriteAt(wipe, p.Layout.CkptOff(1)); err != nil {
		return nil, fmt.Errorf("lld: clearing checkpoint region: %w", err)
	}
	// Wipe every chunk header so images reused across formats do not
	// carry valid-looking chunks from a previous lifetime into the replay
	// window: the trailer of every segment, and below a trailer that heads
	// a stack of chunks, the header of each — a new lifetime repeats the
	// old one's sequence numbers, and a workload repeated with them repeats
	// its headers, under which the old chunks further down would chain. A
	// retired layout's trailer is the one header its segment has.
	sector := make([]byte, seg.SectorSize)
	for s := 0; s < p.Layout.NumSegs; s++ {
		base := p.Layout.SegOff(s)
		chunks, err := walkOnDevice(dev, p.Layout, s, sector)
		if errors.Is(err, seg.ErrBadSegment) || errors.Is(err, seg.ErrRetiredFormat) {
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

	// Incremental-checkpoint chain and replay metrics (DESIGN.md §15).
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

	// Where the mount's time went; the three add up to all of it. Scan is
	// the part the checkpoint bounds, and what HistRecoveryScan observes.
	CkptLoad time.Duration // superblock, checkpoint chain read and folded into the tables
	Scan     time.Duration // trailer scan, then the window's summaries read, decoded and replayed
	Sweep    time.Duration // in-doubt resolution, segment accounting, leak sweep, first publish
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
	// One clock for the report's phases, the histograms and the spans:
	// the tracer's timebase when there is one.
	t0, begin := p.Tracer.Now(), time.Now()
	now := func() time.Duration { return t0 + time.Since(begin) }
	// Recovery roots its own trace: the three phases and each replayed
	// segment become child spans, so a slow recovery shows *which* phase
	// and which segment cost the time (DESIGN.md §13).
	root := p.Tracer.StartAt(obs.SpanRecovery, obs.SpanContext{}, t0)
	child := func(kind obs.SpanKind, start, end time.Duration, arg1, arg2 uint64) {
		p.Tracer.StartAt(kind, root.Ctx(), start).EndAt(end, 0, arg1, arg2)
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
		params:       p,
		obs:          p.Tracer,
		dev:          dev,
		arus:         make(map[ARUID]*aruState),
		builder:      seg.NewBuilder(layout),
		segLive:      make([]int32, layout.NumSegs),
		segOwn:       make([][]BlockID, layout.NumSegs),
		segPins:      make([]int32, layout.NumSegs),
		cache:        newBlockCache(p.CacheBlocks),
		cleanVisited: make(map[int]bool),
		free:         make([]int, 0, layout.NumSegs),
		blockTab:     newTable[seg.BlockRec](),
		listTab:      newTable[seg.ListRec](),
		aruTab:       newTable[aruMark](),
		// Free-list caps (pool.go). An owner table is held per segment
		// with live blocks, so NumSegs never drops one. The builder pool
		// peaks at three spares on the benchmark's workloads; four bounds
		// what a burst of builders released together leaves behind. Eight
		// pooled snapshots keep eight retire-sets' capacity for reuse. A
		// spare hand-off node waits for a reserve slot, so the reserve's
		// size bounds them.
		freeBufs:      freeList[[]byte]{max: 256},
		spareNodes:    freeList[*bufNode]{max: handoffCap},
		freeStates:    freeList[*aruState]{max: 64},
		spareSeals:    freeList[*sealedSeg]{max: 4},
		freeSnaps:     freeList[*snapshot]{max: 8},
		freeOwn:       freeList[[]BlockID]{max: layout.NumSegs},
		spareBuilders: freeList[*seg.Builder]{max: 4},
	}
	// The three per-segment sequence stamps share one allocation.
	n := layout.NumSegs
	stamps := make([]uint64, 3*n)
	d.segSeq, d.segFreeEpoch, d.segFreeSeq = stamps[:n:n], stamps[n:2*n:2*n], stamps[2*n:]
	d.setRet(new(retireSet)) // the bootstrap set, until the first publish
	d.gc.init()
	d.devSh, _ = dev.(sharedReader)

	// The checkpoint chain folds straight into the tables: until the
	// first publish below nobody can read them, so the fold, the replay
	// and the sweep all edit the one representation in place.
	chain, region, err := loadNewestChain(dev, layout)
	if err != nil {
		return nil, RecoveryReport{}, err
	}
	ck := chain.Head()
	d.ckptTS = ck.CkptTS
	d.ckptSeq = ck.FlushedSeq
	d.ckptRegion = region
	d.ckptChainOff = chain.NextOff
	d.ckptDepth = chain.Depth()
	d.ts = ck.NextTS
	d.nextBlk = ck.NextBlock
	d.nextLst = ck.NextList
	d.nextARU = ck.NextARU
	rpt := RecoveryReport{CheckpointTS: ck.CkptTS, DeltaChainDepth: chain.Depth()}
	rpt.DeltaPagesReplayed = d.foldChain(chain)
	rt := &recoveryTables{d: d, pending: make(map[ARUID][]pendingOp), prepared: make(map[ARUID]prepRec)}
	sc0 := now()
	rpt.CkptLoad = sc0 - t0
	child(obs.SpanRecoveryCkptLoad, t0, sc0, uint64(chain.Depth()), uint64(d.blockTab.n))

	// Yield once: on a single P, a collection the caller's allocations
	// began (a fresh device image, say) finishes its mark phase promptly
	// only if this goroutine yields (DESIGN.md §15).
	runtime.Gosched()

	// The summary scan, on one goroutine: replay is strictly ordered by
	// chunk sequence (DESIGN.md §15: ARU commit gating and list-chain
	// surgery are order-sensitive across segments), and what it reads is
	// one sector per segment and per chunk header plus the entry regions
	// above FlushedSeq. First every segment's trailer: a segment holds a
	// consecutive run of chunk sequence numbers from its trailer's down,
	// and the next run starts in another segment, so the chunks above
	// FlushedSeq lie in the segments whose chunk 1 is above it — and in
	// the one that straddles it: the segment with the largest chunk 1 at
	// or below FlushedSeq, which was open when the checkpoint was taken
	// and went on taking chunks.
	type windowSeg struct {
		idx int
		tr  seg.Trailer
	}
	var (
		window    []windowSeg
		straddler = windowSeg{idx: -1}
		sector    = make([]byte, seg.SectorSize)
		entryBuf  []byte
		order     []int32 // replay order of a chunk's entries
	)
	maxSeq := ck.FlushedSeq
	for s := 0; s < layout.NumSegs; s++ {
		tr, err := readTrailer(dev, layout, s, sector)
		if errors.Is(err, seg.ErrBadSegment) {
			// Never written, wiped or torn — or a chunk no segment of this
			// layout can hold: not part of the log.
			continue
		}
		if err != nil {
			return nil, RecoveryReport{}, err
		}
		d.segSeq[s] = tr.Seq
		maxSeq = max(maxSeq, tr.Seq)
		if tr.Seq > ck.FlushedSeq {
			window = append(window, windowSeg{s, tr})
		} else if straddler.idx < 0 || tr.Seq > straddler.tr.Seq {
			straddler = windowSeg{s, tr}
		}
	}
	if straddler.idx >= 0 {
		window = append(window, straddler)
	}
	sort.Slice(window, func(i, j int) bool { return window[i].tr.Seq < window[j].tr.Seq })

	// Then the window, in sequence order: each segment's chunk headers are
	// walked, and each chunk above FlushedSeq has its entry region read,
	// sorted and applied. Chunks are sealed with consecutive seqs, so the
	// chunks above the checkpoint must be a contiguous run starting right
	// after it. A hole means the device lost or reordered an un-synced
	// chunk write: everything past the hole was never acknowledged durable
	// (a completed Sync would have made the missing chunk whole) and may
	// causally depend on it — replaying it could surface a partial ARU.
	// Cut there, and at a chunk whose entries do not decode. (Found by the
	// crash-state enumerator, internal/crashenum.) Past the cut only
	// headers are walked: their sequence numbers must not be handed out
	// again.
	droppedTail := false
	expect := ck.FlushedSeq + 1
	for _, ws := range window {
		st0 := now()
		// The trailer scan accepted chunk 1, so the walk finds at least
		// that (unless the medium changed underneath us, which leaves the
		// trailer's word: one chunk, and its entry region decides).
		chunks, err := walkOnDevice(dev, layout, ws.idx, sector)
		if errors.Is(err, seg.ErrBadSegment) {
			chunks, err = []seg.Chunk{{Trailer: ws.tr, End: layout.SegBytes}}, nil
		}
		entries, applied := 0, 0
		for _, c := range chunks { // none if the device failed the walk
			d.segSeq[ws.idx], maxSeq = c.Seq, max(maxSeq, c.Seq)
			if c.Seq <= ck.FlushedSeq || droppedTail {
				continue // the checkpoint covers it, or the cut: its header is all it cost
			}
			var es []seg.Entry
			ok := c.Seq == expect
			if ok {
				if es, ok, err = readEntries(dev, layout, ws.idx, c, &entryBuf); err != nil {
					break
				}
			}
			if !ok {
				// A hole, or a valid header over a corrupt entry region. A
				// torn rewrite does leave the latter behind — the new chunk's
				// prefix over the old entries, the old header intact — but
				// only at or below FlushedSeq, outside this window: a segment
				// is reused only once a durable checkpoint covers its newest
				// chunk (segFreeable; pinned by rewriteAboveWatermark in
				// reuse_test.go). Inside the window it means the medium
				// failed underneath us.
				droppedTail = true
				continue
			}
			expect++
			// A sealed chunk groups its entries by region — operations, then
			// writes, then commit records — not by time. Replay must see them
			// in timestamp order, the order the live engine produced the
			// effects: otherwise a commit record's buffered operations would
			// apply after inline operations issued later than the commit, and
			// the redo version bounds would mistake that late-arriving
			// surgery for surgery already redone. Equal stamps keep region
			// order, which is per-unit issue order. Indices sort far cheaper
			// than whole entries (DESIGN.md §15).
			order = order[:0]
			for i := range es {
				order = append(order, int32(i))
			}
			slices.SortFunc(order, func(a, b int32) int {
				return cmp.Or(cmp.Compare(es[a].TS, es[b].TS), cmp.Compare(a, b))
			})
			for _, i := range order {
				rt.apply(es[i], uint32(ws.idx))
			}
			entries += len(es)
			applied++
		}
		if err != nil {
			return nil, RecoveryReport{}, fmt.Errorf("lld: reading segment %d: %w", ws.idx, err)
		}
		if applied == 0 {
			continue
		}
		rpt.SegmentsReplayed++
		rpt.EntriesReplayed += entries
		child(obs.SpanRecoverySeg, st0, now(), uint64(ws.idx), uint64(entries))
	}
	sw0 := now()
	rpt.Scan = sw0 - sc0
	child(obs.SpanRecoveryScan, sc0, sw0, uint64(len(window)), uint64(rpt.SegmentsReplayed))
	rt.resolveInDoubt(p.CommitResolver, &rpt)
	rpt.RedoSkipped = rt.skipped
	rpt.ARUsRecovered = rt.committed
	rpt.ARUsDropped = len(rt.pending)
	d.stats.RecoveredEntries = int64(rpt.EntriesReplayed)
	d.stats.RecoveredARUs = int64(rpt.ARUsRecovered)
	d.stats.DroppedARUs = int64(rpt.ARUsDropped)

	// One walk of the recovered block map gives the sweep its leaked
	// blocks and the engine its per-segment live counts, owner tables and
	// next identifiers (those of the surviving entries, as ever).
	leaked := d.leakedBlocks(func(lf *blockLeaf) {
		if lf.persist.HasData {
			d.addLive(BlockID(lf.id), lf.persist)
		}
		d.nextBlk = max(d.nextBlk, BlockID(lf.id)+1)
	})
	pmapWalk(d.listTab.root, func(lf *listLeaf) bool {
		d.nextLst = max(d.nextLst, ListID(lf.id)+1)
		return true
	})
	d.ts = max(d.ts, rt.maxTS+1)
	d.nextARU = max(d.nextARU, rt.maxARU+1)
	d.nextSeq = maxSeq + 1
	d.durableTS = d.ts - 1
	// The window's segments were retired since the checkpoint as surely as
	// any the running engine fills: count them toward the next one, or a
	// life too short to retire CheckpointEvery segments never checkpoints
	// and the window grows mount after mount.
	d.segsSinceC = len(window)

	// Pick the open segment now if one is available; a completely full
	// disk still mounts (for reading and deleting) and defers the pick
	// to the first operation that needs log space. The free set is filled
	// first, in one pass. That pass and the pick run while curSeg still
	// holds its zero value, so segment 0 is neither in the set nor a
	// candidate, and a mount never opens segment 0 first. The log's bytes
	// depend on that choice (the crash-state and modeled goldens pin
	// them), so it stays, and segment 0 enters after the pick.
	for s := range d.segSeq {
		d.enterFree(s)
	}
	if cur, err := d.pickSeg(); err == nil {
		d.curSeg = cur
	} else if errors.Is(err, ErrNoSpace) {
		d.curSeg = -1
	} else {
		return nil, RecoveryReport{}, err
	}
	d.enterFree(0)

	// If the log tail was cut (seq hole or corrupt entry region), stale
	// valid-looking trailers beyond the cut still sit on the medium.
	// Future seals reuse their seq numbers only above maxSeq, so a later
	// recovery from the *old* checkpoint would walk into the same hole —
	// and cut off everything this incarnation writes. Seal the window
	// now with a fresh checkpoint so the dropped segments can never
	// re-enter a replay window.
	// Nothing is queued during construction, so the record is gathered,
	// written and installed directly.
	if droppedTail {
		ck, err := d.gatherCkpt()
		if err == nil && ck.buf != nil {
			if err = d.writeCkpt(ck); err == nil {
				d.installCkpt(ck)
			}
		}
		if err != nil && !errors.Is(err, ErrNoSpace) {
			return nil, RecoveryReport{}, fmt.Errorf("lld: sealing cut log tail: %w", err)
		}
	}

	freed, err := d.freeLeaked(leaked)
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
	// the first client operation. From here on the tables copy on write.
	d.publishLocked()

	end := now()
	rpt.Sweep = end - sw0
	child(obs.SpanRecoverySweep, sw0, end, uint64(rpt.LeakedFreed), uint64(rpt.InDoubt))
	root.EndAt(end, 0, uint64(rpt.EntriesReplayed), uint64(rpt.ARUsRecovered))
	return d, rpt, nil
}

// readTrailer reads segment s's trailer sector into sector and decodes
// it. An error wrapping seg.ErrBadSegment means the device holds no valid
// segment there; one wrapping seg.ErrRetiredFormat names the segment, which
// a retired layout wrote; any other is the device's.
func readTrailer(dev disk.Disk, l seg.Layout, s int, sector []byte) (seg.Trailer, error) {
	if err := dev.ReadAt(sector, l.SegOff(s)+int64(l.SegBytes-seg.SectorSize)); err != nil {
		return seg.Trailer{}, fmt.Errorf("lld: reading trailer of segment %d: %w", s, err)
	}
	tr, err := seg.DecodeTrailer(sector)
	if errors.Is(err, seg.ErrRetiredFormat) {
		return seg.Trailer{}, fmt.Errorf("lld: segment %d: %w", s, err)
	}
	if err == nil {
		_, err = tr.DataOff(l)
	}
	return tr, err
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

// readEntries fetches the entry region of chunk c of segment s — that and
// nothing else of the chunk — into *buf, grown to hold it, and decodes it.
// ok is false if the region does not check against the chunk's header; an
// error is the device's.
func readEntries(dev disk.Disk, l seg.Layout, s int, c seg.Chunk, buf *[]byte) (entries []seg.Entry, ok bool, err error) {
	off, n := c.EntryRegion()
	if off < 0 {
		return nil, false, nil
	}
	if cap(*buf) < n {
		*buf = make([]byte, n)
	}
	region := (*buf)[:n]
	if err := dev.ReadAt(region, l.SegOff(s)+int64(off)); err != nil {
		return nil, false, err
	}
	entries, err = c.DecodeEntryRegion(region)
	return entries, err == nil, nil
}

// loadNewestChain decodes both checkpoint regions as chains and returns
// the one whose head record is newest, with its region index.
// It reads the records a chain holds, not the region reserved for them.
// A region whose chain is torn still contributes its valid prefix: a
// shorter chain only means more segments to replay, never corruption.
func loadNewestChain(dev disk.Disk, layout seg.Layout) (seg.CkptChain, int, error) {
	var (
		best       seg.CkptChain
		bestRegion = -1
	)
	for i := 0; i < 2; i++ {
		c, err := readChain(dev, layout, i)
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

// readChain reads checkpoint region i as a chain (seg.ReadCkptChain).
func readChain(dev disk.Disk, l seg.Layout, i int) (seg.CkptChain, error) {
	return seg.ReadCkptChain(l.CkptRegionBytes(), func(p []byte, off int64) error {
		return dev.ReadAt(p, l.CkptOff(i)+off)
	})
}

// foldChain folds the checkpoint chain's records, oldest first, into the
// tables — an upsert per record of Blocks and Lists, then a drop per
// identifier of DelBlocks and DelLists, so the last word on an identifier
// wins and nothing depends on a table being sorted — and returns the
// number of table records the deltas carried. It builds what
// seg.CkptChain.Materialize describes, without the copy.
func (d *LLD) foldChain(chain seg.CkptChain) (deltaPages int) {
	win := d.epoch + 1
	for i, r := range chain.Recs {
		for j := range r.Blocks {
			lf := d.blockTab.upsert(win, uint64(r.Blocks[j].ID))
			lf.hasPersist, lf.persist = true, r.Blocks[j]
		}
		for j := range r.Lists {
			lf := d.listTab.upsert(win, uint64(r.Lists[j].ID))
			lf.hasPersist, lf.persist = true, r.Lists[j]
		}
		for _, id := range r.DelBlocks {
			d.blockTab.remove(uint64(id))
		}
		for _, id := range r.DelLists {
			d.listTab.remove(uint64(id))
		}
		if i > 0 {
			deltaPages += len(r.Blocks) + len(r.Lists) + len(r.DelBlocks) + len(r.DelLists)
		}
	}
	return deltaPages
}

// recoveryTables replays the summaries beyond the checkpoint into the
// engine's tables, which hold the folded checkpoint and nothing else:
// every entry was born in the mount's own window, so replay edits the
// persistent records in place. Operations tagged with an ARU are
// buffered and applied — at the commit record's timestamp — only when
// the commit record is reached; everything else is discarded (paper
// §3.3: "recovery is always to the most recent persistent version").
//
// Replay is REDO-only and idempotent: every applied operation carries
// a version bound (the block's write timestamp, the list's structural
// timestamp), and an operation at or below the bound already in the
// tables is skipped rather than re-derived. Re-running any prefix of
// the redo stream over already-recovered tables is therefore a no-op —
// a re-crash mid-recovery just makes the next redo shorter
// (DESIGN.md §15).
//
// Every identifier the replay modifies or deletes goes into the engine's
// dirty sets: it must ride in the next delta record, or an incremental
// checkpoint taken after recovery would silently drop the replayed effects.
type recoveryTables struct {
	d *LLD

	pending   map[ARUID][]pendingOp
	prepared  map[ARUID]prepRec // prepare record seen, fate undecided
	committed int
	maxTS     uint64
	maxARU    ARUID
	skipped   int // redo operations skipped by the version-bound guards
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

// block and list return id's persistent record for editing in place, nil
// if the tables hold none.
func (rt *recoveryTables) block(id BlockID) *seg.BlockRec { return persistOf(rt.d.editBlock(id)) }
func (rt *recoveryTables) list(id ListID) *seg.ListRec    { return persistOf(rt.d.editList(id)) }

func persistOf[R any](lf *leaf[R]) *R {
	if lf == nil {
		return nil
	}
	return &lf.persist
}

func (rt *recoveryTables) touchBlock(id BlockID) { rt.d.dirtyBlocks.mark(id) }
func (rt *recoveryTables) touchList(id ListID)   { rt.d.dirtyLists.mark(id) }

// apply processes one summary entry found in segment segIdx.
func (rt *recoveryTables) apply(e seg.Entry, segIdx uint32) {
	rt.maxTS, rt.maxARU = max(rt.maxTS, e.TS), max(rt.maxARU, e.ARU)
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
	d := rt.d
	switch e.Kind {
	case seg.KindNewBlock:
		if r := rt.block(e.Block); r != nil && r.TS >= ts {
			// Identifiers are never reused, so an existing record at or
			// past ts means this allocation was already redone;
			// re-applying would wipe the block's physical address.
			rt.skipped++
			return
		}
		lf := d.blockTab.upsert(d.epoch+1, uint64(e.Block))
		lf.hasPersist, lf.persist = true, seg.BlockRec{ID: e.Block, TS: ts}
		rt.touchBlock(e.Block)
	case seg.KindNewList:
		if l := rt.list(e.List); l != nil && l.TS >= ts {
			rt.skipped++
			return
		}
		lf := d.listTab.upsert(d.epoch+1, uint64(e.List))
		lf.hasPersist, lf.persist = true, seg.ListRec{ID: e.List, TS: ts}
		rt.touchList(e.List)
	case seg.KindWrite:
		r := rt.block(e.Block)
		if r == nil {
			// A write to a block that no longer exists indicates a
			// client race that resolved to deletion. Drop it.
			return
		}
		if r.HasData && r.TS > ts {
			// Writes apply in timestamp order, not log order: a later
			// unit's already-committed version can be materialized at
			// an earlier log position than the commit record that
			// applies an earlier unit's buffered write.
			return
		}
		if r.HasData && r.TS == ts && r.Seg == segIdx && r.Slot == e.Slot {
			rt.skipped++ // exact re-apply of an already-redone write
			return
		}
		r.Seg, r.Slot, r.HasData, r.TS = segIdx, e.Slot, true, ts
		rt.touchBlock(e.Block)
	case seg.KindDeleteBlock:
		d.blockTab.remove(uint64(e.Block))
		rt.touchBlock(e.Block)
	case seg.KindDeleteList:
		d.listTab.remove(uint64(e.List))
		rt.touchList(e.List)
	case seg.KindLink:
		rt.applyLink(e, ts)
	case seg.KindUnlink:
		rt.applyUnlink(e, ts)
	}
}

func (rt *recoveryTables) applyLink(e seg.Entry, ts uint64) {
	l, b := rt.list(e.List), rt.block(e.Block)
	if l == nil || b == nil {
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
	var p *seg.BlockRec
	if e.Pred != seg.NilBlock {
		if p = rt.block(e.Pred); p == nil || p.List != e.List {
			p = nil
		}
	}
	if p == nil {
		b.Succ = l.First
		l.First = e.Block
		if l.Last == seg.NilBlock {
			l.Last = e.Block
		}
	} else {
		b.Succ = p.Succ
		p.Succ = e.Block
		p.TS = ts
		if l.Last == p.ID {
			l.Last = e.Block
		}
		rt.touchBlock(p.ID)
	}
	b.List, b.TS, l.TS = e.List, ts, ts
	rt.touchBlock(e.Block)
	rt.touchList(e.List)
}

func (rt *recoveryTables) applyUnlink(e seg.Entry, ts uint64) {
	l, b := rt.list(e.List), rt.block(e.Block)
	if l == nil || b == nil {
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
	var p *seg.BlockRec
	for cur := l.First; cur != seg.NilBlock && cur != e.Block; cur = p.Succ {
		if p = rt.block(cur); p == nil {
			return
		}
	}
	pred := seg.NilBlock
	if p == nil {
		if l.First != e.Block {
			return
		}
		l.First = b.Succ
	} else {
		pred = p.ID
		p.Succ = b.Succ
		p.TS = ts
		rt.touchBlock(pred)
	}
	if l.Last == e.Block {
		l.Last = pred
	}
	b.Succ, b.List, b.TS, l.TS = seg.NilBlock, seg.NilList, ts, ts
	rt.touchBlock(e.Block)
	rt.touchList(e.List)
}
