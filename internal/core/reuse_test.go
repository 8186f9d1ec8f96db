package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"aru/internal/disk"
	"aru/internal/seg"
)

// syncRecorder is a disk.Disk that remembers the contents as of the
// last completed Sync and every write issued since, so a test can build
// the crash images a reordering device could leave behind.
type syncRecorder struct {
	mu      sync.Mutex
	cur     []byte // what reads see
	stable  []byte // contents at the last completed Sync
	pending []recWrite
}

type recWrite struct {
	off  int64
	data []byte
}

func newSyncRecorder(size int64) *syncRecorder {
	return &syncRecorder{cur: make([]byte, size), stable: make([]byte, size)}
}

func (r *syncRecorder) Size() int64 { return int64(len(r.cur)) }

func (r *syncRecorder) ReadAt(p []byte, off int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if off < 0 || off+int64(len(p)) > int64(len(r.cur)) {
		return disk.ErrOutOfRange
	}
	copy(p, r.cur[off:])
	return nil
}

func (r *syncRecorder) WriteAt(p []byte, off int64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if off < 0 || off+int64(len(p)) > int64(len(r.cur)) {
		return disk.ErrOutOfRange
	}
	copy(r.cur[off:], p)
	r.pending = append(r.pending, recWrite{off: off, data: append([]byte(nil), p...)})
	return nil
}

func (r *syncRecorder) Sync() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	copy(r.stable, r.cur)
	r.pending = r.pending[:0]
	return nil
}

// unsynced returns the number of writes no Sync has covered yet.
func (r *syncRecorder) unsynced() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending)
}

// sectors returns the length of the i-th unsynced write in sectors.
func (r *syncRecorder) sectors(i int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.pending[i].data) / disk.SectorSize
}

// crashImage returns the image of a crash in which every unsynced write
// reached the medium except the torn-th, of which only the first keep
// sectors did (0 = the write is lost).
func (r *syncRecorder) crashImage(torn, keep int) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	img := append([]byte(nil), r.stable...)
	for i, w := range r.pending {
		if i == torn {
			copy(img[w.off:], w.data[:keep*disk.SectorSize])
		} else {
			copy(img[w.off:], w.data)
		}
	}
	return img
}

// rewriteAboveWatermark names an unsynced write that lands on a segment
// whose durable trailer is still inside the replay window of the durable
// checkpoint, or returns nil. Segment reuse is checkpoint-gated
// (segFreeable), and that is what makes a torn rewrite harmless: the old
// trailer it can leave valid over new bytes is one recovery never replays.
func (r *syncRecorder) rewriteAboveWatermark(l seg.Layout) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var flushed uint64
	for i := 0; i < 2; i++ {
		region := r.stable[l.CkptOff(i) : l.CkptOff(i)+l.CkptRegionBytes()]
		if c, err := seg.DecodeCkptChain(region); err == nil && c.Head().FlushedSeq > flushed {
			flushed = c.Head().FlushedSeq
		}
	}
	for _, w := range r.pending {
		if w.off < l.SegOff(0) {
			continue
		}
		s := int((w.off - l.SegOff(0)) / int64(l.SegBytes))
		old, err := seg.DecodeTrailer(r.stable[l.SegOff(s+1)-seg.SectorSize : l.SegOff(s+1)])
		if err == nil && old.Seq > flushed {
			return fmt.Errorf("segment %d rewritten while its durable trailer (seq %d) is above the durable checkpoint's watermark (%d)", s, old.Seq, flushed)
		}
	}
	return nil
}

// splitSegWrites is the device a seal writing two extents would drive:
// every segment image reaches the recorder as its data part and then its
// summary part (entry region and trailer), two writes a crash keeps or
// loses independently. Everything else passes through.
type splitSegWrites struct {
	*syncRecorder
	logOff int64 // start of the log area
}

func (s splitSegWrites) WriteAt(p []byte, off int64) error {
	if off >= s.logOff {
		if tr, err := seg.DecodeTrailer(p); err == nil {
			if data := len(p) - tr.SummaryBytes(); data > 0 {
				if err := s.syncRecorder.WriteAt(p[:data], off); err != nil {
					return err
				}
				return s.syncRecorder.WriteAt(p[data:], off+int64(data))
			}
		}
	}
	return s.syncRecorder.WriteAt(p, off)
}

// errReuseOracle marks a crash image that recovered to wrong data — as
// opposed to one that did not recover, or a failure of the run itself.
var errReuseOracle = errors.New("durability oracle violated")

// reusePayload is a block whose every byte depends on (id, ver), with
// both readable from the header.
func reusePayload(bs int, id BlockID, ver uint32) []byte {
	p := make([]byte, bs)
	binary.LittleEndian.PutUint32(p[0:], uint32(id))
	binary.LittleEndian.PutUint32(p[4:], ver)
	for i := 8; i < bs; i++ {
		p[i] = byte(uint32(id)*131 + ver*17 + uint32(i))
	}
	return p
}

// TestGroupCommitReuseWaitsForSync is the referee of the segment-reuse
// rule (DESIGN.md §11): a segment whose last live blocks were
// superseded by a seal may not be rewritten before a device sync covers
// that seal, whichever driver sealed it. A small log of simple
// overwrites wraps many times with only Checkpoints as durability
// points; after every step the device is crashed with each single
// unsynced write lost in turn (the first one lost is the reordering
// that exposes a rewrite overtaking the seal that justified it) and
// torn to a sampled set of sector prefixes, and after recovery every
// block must read its own id at a version between the one its last
// checkpoint guaranteed and the newest written.
//
// The tears matter because a sealed image is as long as what it holds
// and ends at the segment's last sector, so successive incarnations of
// one segment start at different offsets: a prefix of the new one lies
// over the middle of the old one, and the old trailer — or, for a
// checkpoint record, the old chain — is what recovery must then find or
// reject.
func TestGroupCommitReuseWaitsForSync(t *testing.T) {
	for seed := int64(1); seed <= reuseSeeds; seed++ {
		if err := reuseRun(seed, reuseSteps(), nil); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

const (
	reuseSeeds  = 60
	reuseBlocks = 30
)

func reuseSteps() int {
	if testing.Short() {
		return 60
	}
	return 200
}

// TestSplitSegmentWriteBreaksOracle proves that the seal's one extent is
// necessary, and that the oracle above would notice its absence: with
// every segment image written as a data extent and a summary extent, a
// crash that keeps the summary and loses the data leaves a valid trailer
// over the segment's previous contents, recovery replays it, and a block
// reads bytes that were never its own. The engine is the same; only the
// device wrapper differs from TestGroupCommitReuseWaitsForSync.
func TestSplitSegmentWriteBreaksOracle(t *testing.T) {
	split := func(r *syncRecorder, l seg.Layout) disk.Disk {
		return splitSegWrites{syncRecorder: r, logOff: l.SegOff(0)}
	}
	for seed := int64(1); seed <= reuseSeeds; seed++ {
		err := reuseRun(seed, reuseSteps(), split)
		if errors.Is(err, errReuseOracle) {
			t.Logf("seed %d: %v", seed, err)
			return
		}
		if err != nil {
			t.Fatalf("seed %d: the split device failed otherwise than by the oracle: %v", seed, err)
		}
	}
	t.Fatalf("%d seeds of segment writes split in two passed the oracle: it cannot see a trailer over stale data", reuseSeeds)
}

// reuseRun drives one seeded history and judges every crash image of it:
// each unsynced write lost in turn and kept to sampled sector prefixes.
// wrap, if set, puts a device between the engine and the recorder.
func reuseRun(seed int64, steps int, wrap func(*syncRecorder, seg.Layout) disk.Disk) error {
	const blocks = reuseBlocks
	// Twelve segments of seven blocks; small tables keep the checkpoint
	// regions, and so every crash image, small.
	layout := testLayout(12)
	layout.MaxBlocks, layout.MaxLists = 2*blocks, 4
	p := Params{Layout: layout, CheckpointEvery: -1, CleanerLowWater: -1, CacheBlocks: -1}
	dev := newSyncRecorder(p.Layout.DiskBytes())
	var engineDev disk.Disk = dev
	if wrap != nil {
		engineDev = wrap(dev, layout)
	}
	d, err := Format(engineDev, p)
	if err != nil {
		return err
	}
	bs := d.BlockSize()
	lst, err := d.NewList(0)
	if err != nil {
		return err
	}
	ids := make([]BlockID, blocks)
	newest := make([]uint32, blocks) // newest version written
	floor := make([]uint32, blocks)  // version the last checkpoint guaranteed
	for i := range ids {
		if ids[i], err = d.NewBlock(0, lst, NilBlock); err != nil {
			return err
		}
		newest[i] = 1
		if err := d.Write(0, ids[i], reusePayload(bs, ids[i], 1)); err != nil {
			return err
		}
	}
	checkpoint := func() error {
		if err := d.Checkpoint(); err != nil {
			return err
		}
		copy(floor, newest)
		return nil
	}
	if err := checkpoint(); err != nil {
		return err
	}

	rng := rand.New(rand.NewSource(seed))
	tearRng := rand.New(rand.NewSource(seed)) // its own stream: tears judge the same history
	buf := make([]byte, bs)
	next := 0 // the pool is overwritten in cyclic order, so the log wraps cleanly with no cleaner
	for step := 1; step <= steps; step++ {
		if rng.Intn(12) == 0 {
			if err := checkpoint(); err != nil {
				return fmt.Errorf("step %d: checkpoint: %w", step, err)
			}
		} else {
			for n := 1 + rng.Intn(8); n > 0; n, next = n-1, (next+1)%blocks {
				data := reusePayload(bs, ids[next], newest[next]+1)
				err := d.Write(0, ids[next], data)
				if errors.Is(err, ErrNoSpace) {
					// No cleaner runs, and dead segments past the
					// checkpoint watermark are not reusable: a log that
					// wrapped since the last checkpoint needs the next.
					if err := checkpoint(); err != nil {
						return fmt.Errorf("step %d: checkpoint on a full log: %w", step, err)
					}
					err = d.Write(0, ids[next], data)
				}
				if err != nil {
					return fmt.Errorf("step %d: write: %w", step, err)
				}
				newest[next]++
			}
		}
		if err := dev.rewriteAboveWatermark(layout); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
		for w := 0; w < dev.unsynced(); w++ {
			keeps := []int{0}
			if n := dev.sectors(w); n > 1 {
				// One boundary anywhere and, unless short, one of the two
				// at the ends: the first sector alone, all but the last.
				keeps = append(keeps, 1+tearRng.Intn(n-1))
				if !testing.Short() {
					keeps = append(keeps, 1+tearRng.Intn(2)*(n-2))
				}
				slices.Sort(keeps)
				keeps = slices.Compact(keeps)
			}
			for _, keep := range keeps {
				if err := reuseJudge(dev.crashImage(w, keep), ids, floor, newest, buf); err != nil {
					return fmt.Errorf("step %d, unsynced write %d cut to %d of %d sectors: %w", step, w, keep, dev.sectors(w), err)
				}
			}
		}
	}
	return nil
}

// reuseJudge recovers one crash image and checks every block against the
// oracle: its own id, at a version between the checkpointed one and the
// newest.
func reuseJudge(img []byte, ids []BlockID, floor, newest []uint32, buf []byte) error {
	r, err := Open(disk.FromImage(img, disk.Geometry{}), Params{CacheBlocks: -1})
	if err != nil {
		return fmt.Errorf("recovery: %w", err)
	}
	for i, id := range ids {
		if err := r.Read(0, id, buf); err != nil {
			return fmt.Errorf("block %d: %w", id, err)
		}
		gotID := BlockID(binary.LittleEndian.Uint32(buf[0:]))
		ver := binary.LittleEndian.Uint32(buf[4:])
		if gotID != id || string(buf) != string(reusePayload(len(buf), id, ver)) {
			return fmt.Errorf("%w: block %d reads block %d v%d (checkpointed v%d, newest v%d)",
				errReuseOracle, id, gotID, ver, floor[i], newest[i])
		}
		if ver < floor[i] || ver > newest[i] {
			return fmt.Errorf("%w: block %d reads v%d, outside [checkpointed v%d, newest v%d]",
				errReuseOracle, id, ver, floor[i], newest[i])
		}
	}
	return nil
}
