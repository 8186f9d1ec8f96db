package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"aru/internal/disk"
	"aru/internal/obs"
)

// TestAbortARURunsDueMaintenance: a checkpoint that comes due while a
// prepared unit is open waits for the unit, whose redo it would cut out of
// the replay window, and the abort that closes it runs the checkpoint,
// with no further call.
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
	b, err := d.NewBlock(a, lst, NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(a, b, fill(d, 0xaa)); err != nil {
		t.Fatal(err)
	}
	if err := d.PrepareARU(a, 1, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	start := d.Stats().Checkpoints
	// Simple allocations and writes fill and retire segments beside the
	// prepared unit.
	for i := 0; ; i++ {
		d.mu.Lock()
		retired := d.segsSinceC
		d.mu.Unlock()
		if retired >= every {
			break
		}
		b, err := d.NewBlock(0, lst, NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(0, b, fill(d, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Stats().Checkpoints; got != start {
		t.Fatalf("%d checkpoints ran with a prepared unit open", got-start)
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

// TestStalledUnitDoesNotWedge: a VariantNew unit held open logs nothing a
// checkpoint could cut, so maintenance runs beside it. Simple overwrites
// covering four times a 32-segment log must all be accepted while one
// unit stays open, and the unit still commits at the end.
func TestStalledUnitDoesNotWedge(t *testing.T) {
	p := Params{Layout: testLayout(32), CheckpointEvery: 2}
	d, _ := newTestLLD(t, p)
	lst, _ := d.NewList(0)
	var blocks []BlockID
	for i := 0; i < 16; i++ {
		b, err := d.NewBlock(0, lst, NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	a, err := d.BeginARU()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(a, blocks[0], fill(d, 0xee)); err != nil {
		t.Fatal(err)
	}
	perSeg := p.Layout.SegBytes/p.Layout.BlockSize - 1
	writes := 4 * p.Layout.NumSegs * perSeg
	for i := 0; i < writes; i++ {
		if err := d.Write(0, blocks[1+i%(len(blocks)-1)], fill(d, byte(i))); err != nil {
			t.Fatalf("write %d of %d with a unit open: %v", i, writes, err)
		}
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
	if err := d.EndARU(a); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d.BlockSize())
	if err := d.Read(0, blocks[0], buf); err != nil || !bytes.Equal(buf, fill(d, 0xee)) {
		t.Fatalf("the stalled unit's write reads %#x (err %v)", buf[0], err)
	}
}

// TestInDoubtUnitPinsReplayWindow: a prepared unit's redo lies in the
// replay window until its fate is logged, so the segments that retire
// beside it run no checkpoint, and a crash recovers the unit whole when
// the resolver answers committed.
func TestInDoubtUnitPinsReplayWindow(t *testing.T) {
	d, dev := prepTestDisk(t, Params{CheckpointEvery: 2})
	a, _, _ := buildPreparedUnit(t, d)
	if err := d.PrepareARU(a, 7, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	// Simple allocations and writes retire more than CheckpointEvery
	// segments beside the prepared unit (one more is opened and written).
	lst, _ := d.NewList(0)
	start := d.Stats()
	for i := 0; d.Stats().SegmentsWritten-start.SegmentsWritten <= int64(d.params.CheckpointEvery); i++ {
		b, err := d.NewBlock(0, lst, NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(0, b, fill(d, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if n := d.Stats().Checkpoints - start.Checkpoints; n != 0 {
		t.Errorf("%d checkpoints ran with a unit in doubt", n)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	img := dev.Reopen(dev.Image())
	if err := d.CommitPrepared(a, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	want := logicalState(t, d)
	d2, rpt, err := OpenReport(img, Params{CommitResolver: func(uint64) bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rpt.InDoubtCommitted != 1 {
		t.Errorf("report %+v: want the unit in doubt and committed", rpt)
	}
	if got := logicalState(t, d2); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered state differs from the committed unit's (%d lists, want %d)", len(got), len(want))
	}
	if err := d2.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestSequentialUnitPinsReplayWindow: a VariantOld unit logs its writes as
// they run, tagged with the unit, so the segments that retire under it
// run no checkpoint, and after EndARU and Flush a crash recovers every
// write of the unit.
func TestSequentialUnitPinsReplayWindow(t *testing.T) {
	d, dev := newTestLLD(t, Params{Variant: VariantOld, CheckpointEvery: 2})
	lst, _ := d.NewList(0)
	var blocks []BlockID
	for i := 0; i < 40; i++ {
		b, err := d.NewBlock(0, lst, NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, b)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	start := d.Stats()
	a, err := d.BeginARU()
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range blocks {
		if err := d.Write(a, b, fill(d, byte(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Stats()
	if opened := st.SegmentsWritten - start.SegmentsWritten; opened <= int64(d.params.CheckpointEvery) {
		t.Fatalf("the unit wrote %d segments, want more than %d", opened, d.params.CheckpointEvery)
	}
	if n := st.Checkpoints - start.Checkpoints; n != 0 {
		t.Errorf("%d checkpoints ran under a VariantOld unit", n)
	}
	if err := d.EndARU(a); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dev.Reopen(dev.Image()), Params{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	buf := make([]byte, d2.BlockSize())
	for i, b := range blocks {
		if err := d2.Read(0, b, buf); err != nil || !bytes.Equal(buf, fill(d2, byte(i+1))) {
			t.Fatalf("block %d recovered as %#x (err %v), want the unit's %#x", b, buf[0], err, i+1)
		}
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
// Every operation succeeds — maintenance runs beside the open units, so
// no write is refused for space — every client reads its own blocks back,
// the engine stays consistent, and a remount after Close reads the same
// values.
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
				if err != nil {
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
	t.Logf("%d checkpoints, %d segments cleaned", st.Checkpoints, st.SegmentsCleaned)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dev, Params{})
	if err != nil {
		t.Fatal(err)
	}
	check(d2, "after Close and a remount")
}
