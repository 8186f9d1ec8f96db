package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"aru/internal/disk"
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

// crashImage returns the image of a crash in which every unsynced write
// reached the medium except the drop-th.
func (r *syncRecorder) crashImage(drop int) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	img := append([]byte(nil), r.stable...)
	for i, w := range r.pending {
		if i != drop {
			copy(img[w.off:], w.data)
		}
	}
	return img
}

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
// that exposes a rewrite overtaking the seal that justified it), and
// after recovery every block must read its own id at a version between
// the one its last checkpoint guaranteed and the newest written.
func TestGroupCommitReuseWaitsForSync(t *testing.T) {
	const (
		seeds  = 60
		blocks = 30
	)
	steps := 200
	if testing.Short() {
		steps = 60
	}
	for seed := int64(1); seed <= seeds; seed++ {
		if err := reuseRun(seed, blocks, steps); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

func reuseRun(seed int64, blocks, steps int) error {
	// Twelve segments of seven blocks; small tables keep the checkpoint
	// regions, and so every crash image, small.
	layout := testLayout(12)
	layout.MaxBlocks, layout.MaxLists = 2*blocks, 4
	p := Params{Layout: layout, CheckpointEvery: -1, CleanerLowWater: -1, CacheBlocks: -1}
	dev := newSyncRecorder(p.Layout.DiskBytes())
	d, err := Format(dev, p)
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
		for drop := 0; drop < dev.unsynced(); drop++ {
			r, err := Open(disk.FromImage(dev.crashImage(drop), disk.Geometry{}), Params{CacheBlocks: -1})
			if err != nil {
				return fmt.Errorf("step %d, unsynced write %d lost: recovery: %w", step, drop, err)
			}
			for i, id := range ids {
				if err := r.Read(0, id, buf); err != nil {
					return fmt.Errorf("step %d, unsynced write %d lost: block %d: %w", step, drop, id, err)
				}
				gotID := BlockID(binary.LittleEndian.Uint32(buf[0:]))
				ver := binary.LittleEndian.Uint32(buf[4:])
				if gotID != id || string(buf) != string(reusePayload(bs, id, ver)) {
					return fmt.Errorf("step %d, unsynced write %d lost: block %d reads block %d v%d (checkpointed v%d, newest v%d)",
						step, drop, id, gotID, ver, floor[i], newest[i])
				}
				if ver < floor[i] || ver > newest[i] {
					return fmt.Errorf("step %d, unsynced write %d lost: block %d reads v%d, outside [checkpointed v%d, newest v%d]",
						step, drop, id, ver, floor[i], newest[i])
				}
			}
		}
	}
	return nil
}
