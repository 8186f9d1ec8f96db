package linearize_test

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/linearize"
	"aru/internal/seg"
)

func historyLayout() seg.Layout {
	return seg.Layout{
		BlockSize: 512,
		SegBytes:  4096,
		NumSegs:   32,
		MaxBlocks: 128,
		MaxLists:  16,
	}
}

// payload encodes register value v into a full block: the value in the
// first 8 bytes and a v-dependent fill after it, so a torn or
// misdirected block read cannot masquerade as a clean value.
func payload(bs int, v int64) []byte {
	p := make([]byte, bs)
	binary.LittleEndian.PutUint64(p, uint64(v))
	for i := 8; i < bs; i++ {
		p[i] = byte(int64(i)*31 ^ v*131)
	}
	return p
}

// decode returns the register value a block holds, or -1 if the block
// is not a coherent payload of any value.
func decode(p []byte) int64 {
	v := int64(binary.LittleEndian.Uint64(p))
	for i := 8; i < len(p); i++ {
		if p[i] != byte(int64(i)*31^v*131) {
			return -1
		}
	}
	return v
}

// historyConfig sizes one generated history.
type historyConfig struct {
	readers, committers  int
	commitsPer, readsPer int
	maxReads             int // per-reader recording cap
	blocks               int
	commitPause          time.Duration // post-commit dwell, widens read overlap
	staleHeadEvery       int           // FaultHooks.StaleHeadEvery passthrough
}

// runHistory executes one seeded concurrent history against a fresh
// engine and returns it: committers serialize among themselves (ARUs
// provide failure atomicity, not write-write isolation, so callers own
// block-level coordination — see DESIGN.md §16) and write the same
// value to every register block inside one ARU; readers pin a snapshot
// and read all blocks through it. A reader that observes two different
// values inside one snapshot reports the impossible value -1, which no
// writer ever writes, so atomicity violations fail the register check
// exactly like stale reads do.
func runHistory(t *testing.T, seed int64, cfg historyConfig) []linearize.Op {
	t.Helper()
	lay := historyLayout()
	p := core.Params{Layout: lay, Faults: &core.FaultHooks{StaleHeadEvery: cfg.staleHeadEvery}}
	d, err := core.Format(disk.NewMem(lay.DiskBytes()), p)
	if err != nil {
		t.Fatalf("seed %d: format: %v", seed, err)
	}
	defer d.Close()

	lst, err := d.NewList(seg.SimpleARU)
	if err != nil {
		t.Fatalf("seed %d: new list: %v", seed, err)
	}
	blocks := make([]core.BlockID, cfg.blocks)
	for i := range blocks {
		if blocks[i], err = d.NewBlock(seg.SimpleARU, lst, core.NilBlock); err != nil {
			t.Fatalf("seed %d: new block: %v", seed, err)
		}
		if err := d.Write(seg.SimpleARU, blocks[i], payload(lay.BlockSize, 0)); err != nil {
			t.Fatalf("seed %d: init write: %v", seed, err)
		}
	}
	if err := d.Flush(); err != nil {
		t.Fatalf("seed %d: init flush: %v", seed, err)
	}

	var (
		clock    atomic.Int64
		mu       sync.Mutex
		history  []linearize.Op
		commitMu sync.Mutex
		wg       sync.WaitGroup
	)
	record := func(op linearize.Op) {
		mu.Lock()
		history = append(history, op)
		mu.Unlock()
	}
	done := make(chan struct{})

	var committers sync.WaitGroup
	for c := 0; c < cfg.committers; c++ {
		wg.Add(1)
		committers.Add(1)
		go func(c int) {
			defer wg.Done()
			defer committers.Done()
			for i := 0; i < cfg.commitsPer; i++ {
				v := int64(seed)*1_000_000 + int64(c)*1_000 + int64(i) + 1
				call := clock.Add(1)
				commitMu.Lock()
				aru, err := d.BeginARU()
				if err == nil {
					for _, b := range blocks {
						if werr := d.Write(aru, b, payload(lay.BlockSize, v)); werr != nil {
							err = werr
							break
						}
					}
					if err == nil {
						err = d.EndARU(aru)
					} else {
						d.AbortARU(aru)
					}
				}
				commitMu.Unlock()
				ret := clock.Add(1)
				if err != nil {
					t.Errorf("seed %d: committer %d: %v", seed, c, err)
					return
				}
				record(linearize.Op{Client: c, Call: call, Return: ret, Input: v})
				if cfg.commitPause > 0 {
					// Dwell inside the post-commit window so readers
					// overlap it: this is where a dropped publish leaves
					// the head stale.
					time.Sleep(cfg.commitPause)
				}
			}
		}(c)
	}
	go func() { committers.Wait(); close(done) }()

	for r := 0; r < cfg.readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			buf := make([]byte, lay.BlockSize)
			for i := 0; i < cfg.maxReads; i++ {
				// Keep reading for as long as commits are in flight (so
				// every post-commit window is observed), but at least
				// readsPer times even if the committers finish first.
				if i >= cfg.readsPer {
					select {
					case <-done:
						return
					default:
					}
				}
				call := clock.Add(1)
				s, err := d.AcquireSnapshot()
				if err != nil {
					t.Errorf("seed %d: reader %d: acquire: %v", seed, r, err)
					return
				}
				v := int64(-1)
				for j, b := range blocks {
					if rerr := s.Read(seg.SimpleARU, b, buf); rerr != nil {
						t.Errorf("seed %d: reader %d: read: %v", seed, r, rerr)
						s.Release()
						return
					}
					got := decode(buf)
					if j == 0 {
						v = got
					} else if got != v {
						v = -1 // torn: two values inside one snapshot
						break
					}
				}
				s.Release()
				ret := clock.Add(1)
				record(linearize.Op{Client: cfg.committers + r, Call: call, Return: ret, Output: v})
				time.Sleep(20 * time.Microsecond)
			}
		}(r)
	}
	wg.Wait()
	// A leaked handle pins an epoch, and everything it retired, forever.
	if n := d.OpenSnapshots(); n != 0 {
		t.Errorf("seed %d: %d snapshot handles leaked", seed, n)
	}
	return history
}

// TestLinearizableReads drives 8 snapshot readers against 4 committers
// over many seeded histories and requires every observed history to
// linearize against an atomic register: no reader may see a torn
// multi-block state, a stale value after a newer commit returned, or a
// value oscillation another reader contradicts.
func TestLinearizableReads(t *testing.T) {
	histories := 1000
	if testing.Short() {
		histories = 120
	}
	cfg := historyConfig{
		readers: 8, committers: 4,
		commitsPer: 3, readsPer: 4,
		maxReads: 64, blocks: 3,
		commitPause: 100 * time.Microsecond,
	}
	spec := linearize.RegisterSpec{}
	for seed := int64(1); seed <= int64(histories); seed++ {
		h := runHistory(t, seed, cfg)
		if t.Failed() {
			return
		}
		if res := linearize.Check(spec, h); !res.Ok {
			min := linearize.Shrink(spec, h)
			t.Fatalf("seed %d: history of %d ops not linearizable (search depth %d); shrunk counterexample: %+v",
				seed, len(h), res.Depth, min)
		}
	}
}

// TestStaleHeadBugCaught validates the checker against a deliberately
// broken engine: FaultHooks.StaleHeadEvery drops every 2nd epoch publish
// that carries a commit, so committed state lingers invisible and a
// reader can return a value that a completed commit already overwrote.
// Only those publishes count: BeginARU and shadow writes do not publish,
// so dropping every 2nd publish of any kind would mostly drop publishes
// no simple reader can observe. The checker must find the violation
// within a bounded number of seeded histories and shrink it to a
// minimal read-sees-stale-value core.
func TestStaleHeadBugCaught(t *testing.T) {
	cfg := historyConfig{
		readers: 8, committers: 4,
		commitsPer: 3, readsPer: 4,
		maxReads: 64, blocks: 3,
		commitPause:    300 * time.Microsecond,
		staleHeadEvery: 2,
	}
	spec := linearize.RegisterSpec{}
	for seed := int64(1); seed <= 300; seed++ {
		h := runHistory(t, seed, cfg)
		if t.Failed() {
			return
		}
		res := linearize.Check(spec, h)
		if res.Ok {
			continue
		}
		min := linearize.Shrink(spec, h)
		if min == nil || linearize.Check(spec, min).Ok {
			t.Fatalf("seed %d: shrink lost the violation", seed)
		}
		if len(min) > 4 {
			t.Fatalf("seed %d: shrunk counterexample still has %d ops: %+v", seed, len(min), min)
		}
		t.Logf("seed %d: stale-head violation shrunk from %d to %d ops: %+v",
			seed, len(h), len(min), min)
		return
	}
	t.Fatal("stale-head bug not caught in 300 seeded histories")
}
