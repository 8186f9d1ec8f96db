package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"aru/internal/disk"
)

// TestAbortARURunsDueMaintenance: a checkpoint that comes due while an ARU
// is open waits for the unit, and the abort that closes the last open unit
// runs it, with no further call.
func TestAbortARURunsDueMaintenance(t *testing.T) {
	const every = 3
	d, _ := newTestLLD(t, Params{CheckpointEvery: every})
	lst, err := d.NewList(0)
	if err != nil {
		t.Fatal(err)
	}
	a, err := d.BeginARU()
	if err != nil {
		t.Fatal(err)
	}
	start := d.Stats().Checkpoints
	// Each allocation logs an entry tagged with the unit, so the unit's
	// own operations fill and retire segments.
	for i := 0; ; i++ {
		d.mu.RLock()
		retired := d.segsSinceC
		d.mu.RUnlock()
		if retired >= every {
			break
		}
		b, err := d.NewBlock(a, lst, NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(a, b, fill(d, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Stats().Checkpoints; got != start {
		t.Fatalf("%d checkpoints ran with an ARU open", got-start)
	}
	if err := d.AbortARU(a); err != nil {
		t.Fatal(err)
	}
	if got := d.Stats().Checkpoints; got != start+1 {
		t.Fatalf("AbortARU left the due checkpoint undone: %d checkpoints, want %d", got, start+1)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// lockProbe is a device that records, for every Sync and every write into
// a checkpoint region, whether its caller holds the engine lock: on one
// goroutine a failed TryLock means exactly that.
type lockProbe struct {
	*disk.Sim
	d          *LLD // nil until recording starts
	held       int
	firstStack string
}

func (p *lockProbe) probe() {
	if p.d == nil {
		return
	}
	if p.d.mu.TryLock() {
		p.d.mu.Unlock()
		return
	}
	if p.held++; p.firstStack == "" {
		p.firstStack = string(debug.Stack())
	}
}

func (p *lockProbe) Sync() error {
	p.probe()
	return p.Sim.Sync()
}

func (p *lockProbe) WriteAt(b []byte, off int64) error {
	if p.d != nil {
		l := p.d.params.Layout
		for r := 0; r < 2; r++ {
			if off >= l.CkptOff(r) && off < l.CkptOff(r)+l.CkptRegionBytes() {
				p.probe()
			}
		}
	}
	return p.Sim.WriteAt(b, off)
}

// TestMaintenanceIOOffLock: maintenance holds d.mu to decide and to
// install, never across device I/O. A seeded history on one goroutine —
// overwrites, allocations and deletions, units committed and aborted,
// flushes, automatic checkpoints and cleaner passes, explicit Checkpoint
// and Clean, and Close — must issue every sync and every checkpoint-region
// write with d.mu free. The log keeps enough slack that pickSeg's last
// resort, the one sync left under the lock, never fires.
func TestMaintenanceIOOffLock(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		p := Params{Layout: testLayout(40), CheckpointEvery: 4, CkptCompactEvery: 3, CleanerLowWater: 5}
		dev := &lockProbe{Sim: disk.NewMem(p.Layout.DiskBytes())}
		d, err := Format(dev, p)
		if err != nil {
			t.Fatal(err)
		}
		dev.d = d
		rng := rand.New(rand.NewSource(seed))
		lst, _ := d.NewList(0)
		var live []BlockID
		var asked, cleanedAsked int64 // checkpoints and cleaning done on request
		for len(live) < 150 {
			b, err := d.NewBlock(0, lst, NilBlock)
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, b)
		}
		for op := 0; op < 3000; op++ {
			b := live[rng.Intn(len(live))]
			switch r := rng.Intn(100); {
			case r < 60:
				err = d.Write(0, b, fill(d, byte(op)))
			case r < 75:
				var a ARUID
				if a, err = d.BeginARU(); err == nil {
					if err = d.Write(a, b, fill(d, byte(op))); err == nil {
						if rng.Intn(4) == 0 {
							err = d.AbortARU(a)
						} else {
							err = d.EndARU(a)
						}
					}
				}
			case r < 82:
				var nb BlockID
				if err = d.DeleteBlock(0, b); err == nil {
					nb, err = d.NewBlock(0, lst, NilBlock)
				}
				live = append(slices.DeleteFunc(live, func(x BlockID) bool { return x == b }), nb)
			case r < 94:
				err = d.Flush()
			case r < 97:
				before := d.Stats().Checkpoints
				err = d.Checkpoint()
				asked += d.Stats().Checkpoints - before
			default:
				var n int
				n, err = d.Clean(2 * p.CleanerLowWater)
				cleanedAsked += int64(n)
			}
			if err != nil {
				t.Fatalf("seed %d op %d: %v", seed, op, err)
			}
			if dev.held != 0 {
				t.Fatalf("seed %d op %d: a sync or checkpoint write ran under d.mu:\n%s", seed, op, dev.firstStack)
			}
		}
		st := d.Stats()
		if err := d.VerifyInternal(); err != nil {
			t.Fatal(err)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if st.Checkpoints == asked || st.SegmentsCleaned == cleanedAsked || cleanedAsked == 0 {
			t.Fatalf("seed %d: the history did not exercise maintenance: %d checkpoints (%d asked for), %d segments cleaned (%d asked for)",
				seed, st.Checkpoints, asked, st.SegmentsCleaned, cleanedAsked)
		}
		if dev.held != 0 {
			t.Fatalf("seed %d: Close ran a sync or checkpoint write under d.mu:\n%s", seed, dev.firstStack)
		}
	}
}

// TestMaintenanceBesideOperations: with checkpoint and cleaner rounds
// doing their device I/O outside d.mu, other clients' operations run in
// between. Four clients overwrite their own blocks — simply, or inside
// units they commit or abort — and flush, one of them also asking for
// checkpoints and cleaning, on a log small enough that the cleaner runs.
// Every client reads its own blocks back, the engine stays consistent,
// and a remount after Close reads the same values.
//
// A write refused with ErrNoSpace is skipped: with units open at most
// operation ends, maintenance can fall behind and the log refuses growth
// it could absorb. That wedge is older than this test (ROADMAP, "Space
// never wedges") and not what it checks.
func TestMaintenanceBesideOperations(t *testing.T) {
	p := Params{Layout: testLayout(48), CheckpointEvery: 2, CkptCompactEvery: 3, CleanerLowWater: 5}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient, ops = 4, 25, 400
	lst, _ := d.NewList(0)
	owned := make([][]BlockID, clients)
	for c := range owned {
		for i := 0; i < perClient; i++ {
			b, err := d.NewBlock(0, lst, NilBlock)
			if err != nil {
				t.Fatal(err)
			}
			owned[c] = append(owned[c], b)
		}
	}
	var wg sync.WaitGroup
	var refused atomic.Int64
	errs := make(chan error, clients)
	last := make([]map[BlockID]byte, clients)
	for c := 0; c < clients; c++ {
		last[c] = make(map[BlockID]byte)
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c + 1)))
			for op := 0; op < ops; op++ {
				b := owned[c][rng.Intn(perClient)]
				pat := byte(op)
				var err error
				switch r := rng.Intn(100); {
				case r < 70:
					if err = d.Write(0, b, fill(d, pat)); err == nil {
						last[c][b] = pat
					}
				case r < 85:
					var a ARUID
					if a, err = d.BeginARU(); err != nil {
						break
					}
					if err = d.Write(a, b, fill(d, pat)); err != nil || rng.Intn(3) == 0 {
						if aerr := d.AbortARU(a); err == nil {
							err = aerr
						}
					} else if err = d.EndARU(a); err == nil {
						last[c][b] = pat
					}
				case r < 95 || c != 0:
					err = d.Flush()
				case r < 98:
					err = d.Checkpoint()
				default:
					_, err = d.Clean(p.Layout.NumSegs)
				}
				if errors.Is(err, ErrNoSpace) {
					refused.Add(1)
				}
				if err != nil && !errors.Is(err, ErrNoSpace) && !errors.Is(err, ErrARUActive) {
					errs <- fmt.Errorf("client %d op %d: %w", c, op, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	check := func(d *LLD, when string) {
		t.Helper()
		buf := make([]byte, d.BlockSize())
		for _, m := range last {
			for b, pat := range m {
				if err := d.Read(0, b, buf); err != nil || !bytes.Equal(buf, fill(d, pat)) {
					t.Fatalf("%s: block %d reads %#x (err %v), want %#x", when, b, buf[0], err, pat)
				}
			}
		}
		if err := d.VerifyInternal(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	check(d, "after the clients")
	st := d.Stats()
	if st.Checkpoints == 0 {
		t.Fatal("no checkpoint ran")
	}
	t.Logf("%d checkpoints, %d segments cleaned, %d operations refused with ErrNoSpace", st.Checkpoints, st.SegmentsCleaned, refused.Load())
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dev, Params{})
	if err != nil {
		t.Fatal(err)
	}
	check(d2, "after Close and a remount")
}
