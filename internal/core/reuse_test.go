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
// sectors did (0 = the write is lost). The sectors the torn write did not
// reach keep what they held — or, with destroy set, come back zeroed: the
// harsher device on which an interrupted write ruins what it was about to
// replace.
func (r *syncRecorder) crashImage(torn, keep int, destroy bool) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	img := append([]byte(nil), r.stable...)
	for i, w := range r.pending {
		if i == torn {
			copy(img[w.off:], w.data[:keep*disk.SectorSize])
			if destroy {
				clear(img[w.off+int64(keep*disk.SectorSize) : w.off+int64(len(w.data))])
			}
		} else {
			copy(img[w.off:], w.data)
		}
	}
	return img
}

// rewriteAboveWatermark names an unsynced write that starts a new
// incarnation of a segment — it ends at the segment's last sector, where
// chunk 1 does — while the newest durable chunk of the old one is still
// inside the replay window of the durable checkpoint, or returns nil.
// Segment reuse is checkpoint-gated (segFreeable), and that is what makes
// a torn rewrite harmless: the old headers it can leave valid over new
// bytes are ones recovery never replays. (A write that ends lower is a
// continuation: it lands below every chunk of its segment, durable or not.)
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
		if w.off+int64(len(w.data)) != l.SegOff(s+1) {
			continue
		}
		old, err := seg.Walk(l, r.stable[l.SegOff(s):l.SegOff(s+1)])
		if err == nil && old[len(old)-1].Seq > flushed {
			return fmt.Errorf("segment %d rewritten while its newest durable chunk (seq %d) is above the durable checkpoint's watermark (%d)", s, old[len(old)-1].Seq, flushed)
		}
	}
	return nil
}

// mostChunks returns the largest number of chunks a segment of img holds.
func mostChunks(l seg.Layout, img []byte) int {
	most := 0
	for s := 0; s < l.NumSegs; s++ {
		if chunks, err := seg.Walk(l, img[l.SegOff(s):l.SegOff(s+1)]); err == nil {
			most = max(most, len(chunks))
		}
	}
	return most
}

// splitSegWrites is the device a seal writing its data apart from its
// summary would drive: every chunk reaches the recorder as its data area
// and, in writes of their own, the entry region below it and the header
// sector above it — writes a crash keeps or loses independently.
// Everything else passes through.
type splitSegWrites struct {
	*syncRecorder
	logOff int64 // start of the log area
}

func (s splitSegWrites) WriteAt(p []byte, off int64) error {
	if off >= s.logOff {
		if tr, err := seg.DecodeTrailer(p); err == nil && tr.DataBlocks > 0 {
			entries, hdr := tr.SummaryBytes()-seg.SectorSize, len(p)-seg.SectorSize
			for _, part := range [][2]int{{entries, hdr}, {0, entries}, {hdr, len(p)}} {
				if err := s.syncRecorder.WriteAt(p[part[0]:part[1]], off+int64(part[0])); err != nil {
					return err
				}
			}
			return nil
		}
	}
	return s.syncRecorder.WriteAt(p, off)
}

// widenedChunkWrites is the device of an engine that, at a durability
// point inside a segment, writes the segment from the new chunk's start to
// its end — the new chunk and, again, every chunk above it, acknowledged
// ones included — instead of the new chunk alone. Chunk 1 and everything
// outside the log pass through.
type widenedChunkWrites struct {
	*syncRecorder
	l seg.Layout
}

func (w widenedChunkWrites) WriteAt(p []byte, off int64) error {
	if off >= w.l.SegOff(0) {
		s := int((off - w.l.SegOff(0)) / int64(w.l.SegBytes))
		if above := w.l.SegOff(s+1) - (off + int64(len(p))); above > 0 {
			wide := make([]byte, int64(len(p))+above)
			copy(wide, p)
			if err := w.syncRecorder.ReadAt(wide[len(p):], off+int64(len(p))); err != nil {
				return err
			}
			p = wide
		}
	}
	return w.syncRecorder.WriteAt(p, off)
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
// overwrites wraps many times, with Checkpoints and Flushes as durability
// points — so segments take several chunks, one per durability point that
// falls inside them; after every step the device is crashed with each
// single unsynced write lost in turn (the first one lost is the reordering
// that exposes a rewrite overtaking the seal that justified it) and
// torn to a sampled set of sector prefixes, and after recovery every
// block must read its own id at a version between the one its last
// durability point guaranteed and the newest written.
//
// The tears matter because a chunk is as long as what it holds: chunk 1
// ends at the segment's last sector and each later one where the one
// before begins, so successive incarnations of one segment put their
// chunks at different offsets: a prefix of a new one lies over the middle
// of the old ones, and the old headers — or, for a checkpoint record, the
// old chain — are what recovery must then find or reject.
//
// Each tear is judged twice: leaving the sectors it did not reach as they
// were, and destroying them. The log survives the second, harsher device
// too, because it never overwrites a byte it still needs: a chunk lands
// below every chunk of its segment, a rewrite on a segment the durable
// checkpoint has made dead, a checkpoint record past the chain's end or in
// the other region (TestWidenedChunkWriteBreaksOracle is the
// counter-example).
func TestGroupCommitReuseWaitsForSync(t *testing.T) {
	most := 0
	for seed := int64(1); seed <= reuseSeeds; seed++ {
		chunks, err := reuseRun(seed, reuseSteps(), reuseDevice{destroy: true})
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		most = max(most, chunks)
	}
	if most < 3 {
		t.Errorf("no segment of any run held more than %d chunks: durability points inside a segment went untested", most)
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

// reuseDevice is what reuseRun puts under the engine and how it tears it.
type reuseDevice struct {
	// wrap, if set, puts a device between the engine and the recorder.
	wrap func(*syncRecorder, seg.Layout) disk.Disk
	// destroy judges every tear a second time with the sectors it did not
	// reach destroyed instead of left as they were (crashImage).
	destroy bool
	// rewrites lets the device rewrite what it likes: the recorder's check
	// that no segment is rewritten above the watermark judges the engine's
	// writes, and a wrapper that widens them issues others.
	rewrites bool
}

// TestSplitSegmentWriteBreaksOracle proves that the seal's one extent is
// necessary, and that the oracle above would notice its absence: with
// every chunk's data written apart from its summary, a crash that keeps
// the summary and loses the data leaves a valid header and valid entries
// over the segment's previous contents, recovery replays them, and a block
// reads bytes that were never its own. The engine is the same; only the
// device wrapper differs from TestGroupCommitReuseWaitsForSync. (Cut in
// two contiguous extents anywhere, a chunk is safe: each holds one of its
// checksummed ends. It is the unchecksummed middle, on its own, that
// cannot be told from what lay there before.)
func TestSplitSegmentWriteBreaksOracle(t *testing.T) {
	split := func(r *syncRecorder, l seg.Layout) disk.Disk {
		return splitSegWrites{syncRecorder: r, logOff: l.SegOff(0)}
	}
	reuseMustBreak(t, reuseDevice{wrap: split}, "chunk writes split in three")
}

// TestWidenedChunkWriteBreaksOracle proves what "write only the new chunk"
// buys. An engine that wrote, at each durability point inside a segment,
// everything from the new chunk's start to the segment's end would write
// the same bytes over the acknowledged chunks above it. On a device whose
// interrupted write leaves the sectors it did not reach as they were that
// loses nothing, whatever sectors it reaches: the oracle passes. On one
// whose interrupted write ruins them, it loses chunks a sync had
// acknowledged, and the oracle must say so — while the engine, which never
// writes over a byte it still needs, passes on that device too
// (TestGroupCommitReuseWaitsForSync). The atomic-sector assumption is all
// the engine asks of a device; rewrite-in-place safety is what the widened
// write would add to it.
func TestWidenedChunkWriteBreaksOracle(t *testing.T) {
	widen := func(r *syncRecorder, l seg.Layout) disk.Disk {
		return widenedChunkWrites{syncRecorder: r, l: l}
	}
	for seed := int64(1); seed <= 6; seed++ {
		if _, err := reuseRun(seed, reuseSteps(), reuseDevice{wrap: widen, rewrites: true}); err != nil {
			t.Fatalf("seed %d: widened chunk writes fail under tears that leave what they did not reach: %v", seed, err)
		}
	}
	reuseMustBreak(t, reuseDevice{wrap: widen, rewrites: true, destroy: true}, "widened chunk writes under destroying tears")
}

// reuseMustBreak runs the seeds on dev until one fails the oracle, and
// fails the test if none does or a run fails otherwise.
func reuseMustBreak(t *testing.T, dev reuseDevice, what string) {
	t.Helper()
	for seed := int64(1); seed <= reuseSeeds; seed++ {
		_, err := reuseRun(seed, reuseSteps(), dev)
		if errors.Is(err, errReuseOracle) {
			t.Logf("seed %d: %v", seed, err)
			return
		}
		if err != nil {
			t.Fatalf("seed %d: %s failed otherwise than by the oracle: %v", seed, what, err)
		}
	}
	t.Fatalf("%d seeds of %s passed the oracle: it has no teeth there", reuseSeeds, what)
}

// reuseRun drives one seeded history on rd and judges every crash image of
// it: each unsynced write lost in turn and kept to sampled sector
// prefixes. It returns the largest number of chunks a segment held at the
// end.
func reuseRun(seed int64, steps int, rd reuseDevice) (int, error) {
	const blocks = reuseBlocks
	// Twelve segments of seven blocks; small tables keep the checkpoint
	// regions, and so every crash image, small.
	layout := testLayout(12)
	layout.MaxBlocks, layout.MaxLists = 2*blocks, 4
	p := Params{Layout: layout, CheckpointEvery: -1, CleanerLowWater: -1, CacheBlocks: -1}
	dev := newSyncRecorder(p.Layout.DiskBytes())
	var engineDev disk.Disk = dev
	if rd.wrap != nil {
		engineDev = rd.wrap(dev, layout)
	}
	d, err := Format(engineDev, p)
	if err != nil {
		return 0, err
	}
	bs := d.BlockSize()
	lst, err := d.NewList(0)
	if err != nil {
		return 0, err
	}
	ids := make([]BlockID, blocks)
	newest := make([]uint32, blocks) // newest version written
	floor := make([]uint32, blocks)  // version the last durability point guaranteed
	for i := range ids {
		if ids[i], err = d.NewBlock(0, lst, NilBlock); err != nil {
			return 0, err
		}
		newest[i] = 1
		if err := d.Write(0, ids[i], reusePayload(bs, ids[i], 1)); err != nil {
			return 0, err
		}
	}
	durable := func(point func() error) error {
		if err := point(); err != nil {
			return err
		}
		copy(floor, newest)
		return nil
	}
	if err := durable(d.Checkpoint); err != nil {
		return 0, err
	}

	tears := []bool{false} // whether a tear destroys the sectors it did not reach
	if rd.destroy {
		tears = append(tears, true)
	}
	rng := rand.New(rand.NewSource(seed))
	tearRng := rand.New(rand.NewSource(seed)) // its own stream: tears judge the same history
	buf := make([]byte, bs)
	next := 0 // the pool is overwritten in cyclic order, so the log wraps cleanly with no cleaner
	for step := 1; step <= steps; step++ {
		switch r := rng.Intn(12); {
		case r == 0:
			if err := durable(d.Checkpoint); err != nil {
				return 0, fmt.Errorf("step %d: checkpoint: %w", step, err)
			}
		case r <= 3:
			// A durability point inside the segment: one more chunk of it.
			if err := durable(d.Flush); err != nil {
				return 0, fmt.Errorf("step %d: flush: %w", step, err)
			}
		default:
			for n := 1 + rng.Intn(4); n > 0; n, next = n-1, (next+1)%blocks {
				data := reusePayload(bs, ids[next], newest[next]+1)
				err := d.Write(0, ids[next], data)
				if errors.Is(err, ErrNoSpace) {
					// No cleaner runs, and dead segments past the
					// checkpoint watermark are not reusable: a log that
					// wrapped since the last checkpoint needs the next.
					if err := durable(d.Checkpoint); err != nil {
						return 0, fmt.Errorf("step %d: checkpoint on a full log: %w", step, err)
					}
					err = d.Write(0, ids[next], data)
				}
				if err != nil {
					return 0, fmt.Errorf("step %d: write: %w", step, err)
				}
				newest[next]++
			}
		}
		if !rd.rewrites {
			if err := dev.rewriteAboveWatermark(layout); err != nil {
				return 0, fmt.Errorf("step %d: %w", step, err)
			}
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
				for _, destroy := range tears {
					if err := reuseJudge(dev.crashImage(w, keep, destroy), ids, floor, newest, buf); err != nil {
						return 0, fmt.Errorf("step %d, unsynced write %d cut to %d of %d sectors (rest destroyed: %v): %w", step, w, keep, dev.sectors(w), destroy, err)
					}
				}
			}
		}
	}
	return mostChunks(layout, dev.crashImage(-1, 0, false)), nil
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
