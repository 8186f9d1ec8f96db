package core

import (
	"fmt"
	"math/rand"
	"testing"

	"aru/internal/disk"
)

// TestFreeSetMatchesScan drives seeded histories on a small log and runs
// VerifyInternal, which holds the free set against a scan of segFreeable,
// after every step. The history has units that copy a block's record into
// a shadow (MoveBlock pins the block's segment), aborted only after a
// simple write may have superseded the block they copied, so that their
// last pin frees a segment; overwrite units, some aborted; deletions and
// fresh blocks; durable commits; a snapshot held across cleaner rounds;
// flushes, checkpoints and a crash and mount halfway. A last subtest
// reaches each rarer entry on purpose (testFreeSetEntries).
func TestFreeSetMatchesScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			p := Params{Layout: testLayout(32), CheckpointEvery: 4, CleanerLowWater: 4}
			d, dev := newTestLLD(t, p)
			rng := rand.New(rand.NewSource(seed))
			verify := func(step string) {
				t.Helper()
				if err := d.VerifyInternal(); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
			}
			lst, err := d.NewList(0)
			if err != nil {
				t.Fatal(err)
			}
			var blocks []BlockID
			for i := 0; i < 48; i++ {
				b, err := d.NewBlock(0, lst, NilBlock)
				if err == nil {
					err = d.Write(0, b, fill(d, byte(i)))
				}
				if err != nil {
					t.Fatal(err)
				}
				blocks = append(blocks, b)
			}
			// The blocks units copy each sit alone on a list of their own, so
			// that no list operation of another stream crosses a unit's view.
			var (
				solo     []BlockID
				soloList []ListID
			)
			for i := 0; i < 6; i++ {
				l, err := d.NewList(0)
				if err != nil {
					t.Fatal(err)
				}
				b, err := d.NewBlock(0, l, NilBlock)
				if err == nil {
					err = d.Write(0, b, fill(d, byte(i)))
				}
				if err != nil {
					t.Fatal(err)
				}
				solo, soloList = append(solo, b), append(soloList, l)
			}
			verify("populated")

			type copier struct {
				a ARUID
				i int // the solo block the unit copied
			}
			var (
				open []copier // units holding shadow copies, aborted later
				snap *Snapshot
				held int // steps the snapshot has left
			)
			defer func() {
				if snap != nil {
					snap.Release()
				}
			}()
			busy := func(i int) bool {
				for _, c := range open {
					if c.i == i {
						return true
					}
				}
				return false
			}
			history := func(steps int, phase string) {
				t.Helper()
				for step := 0; step < steps; step++ {
					var err error
					switch r := rng.Intn(24); {
					case r < 4: // a unit copies a solo block's record
						i := rng.Intn(len(solo))
						if busy(i) {
							break
						}
						var a ARUID
						if a, err = d.BeginARU(); err == nil {
							if err = d.MoveBlock(a, solo[i], soloList[i], NilBlock); err == nil {
								open = append(open, copier{a, i})
							}
						}
					case r < 7: // a simple write supersedes a solo block
						err = d.Write(0, solo[rng.Intn(len(solo))], fill(d, byte(step)))
					case r < 9 && len(open) > 0: // an open unit aborts
						i := rng.Intn(len(open))
						err = d.AbortARU(open[i].a)
						open = append(open[:i], open[i+1:]...)
					case r < 13:
						err = ownerUnit(d, rng, blocks)
					case r < 15: // a deletion and a fresh block in its place
						i := rng.Intn(len(blocks))
						if err = d.DeleteBlock(0, blocks[i]); err == nil {
							if blocks[i], err = d.NewBlock(0, lst, NilBlock); err == nil {
								err = d.Write(0, blocks[i], fill(d, byte(step)))
							}
						}
					case r < 17: // a durable commit
						var a ARUID
						if a, err = d.BeginARU(); err == nil {
							if err = d.Write(a, blocks[rng.Intn(len(blocks))], fill(d, byte(step))); err == nil {
								err = d.CommitDurable(a)
							}
						}
					case r < 18 && snap == nil: // a snapshot, held a few steps
						snap, err = d.AcquireSnapshot()
						held = 2 + rng.Intn(6)
					case r < 20:
						err = d.Flush()
					case r < 22:
						err = d.Checkpoint()
					default:
						_, err = d.Clean(d.FreeSegments() + 3)
					}
					if err != nil {
						t.Fatalf("%s step %d: %v", phase, step, err)
					}
					verify(fmt.Sprint(phase, " step ", step))
					if held--; snap != nil && held <= 0 {
						snap.Release()
						snap = nil
					}
				}
			}
			history(300, "first life")
			st := d.Stats()
			if st.SegmentsCleaned == 0 || st.Checkpoints == 0 {
				t.Fatalf("the history cleaned %d segments and took %d checkpoints", st.SegmentsCleaned, st.Checkpoints)
			}

			// Crash with units open and mount the image; a snapshot still held
			// is released first.
			if snap != nil {
				snap.Release()
				snap = nil
			}
			d, err = Open(disk.FromImage(dev.Image(), disk.Geometry{}), p)
			if err != nil {
				t.Fatal(err)
			}
			open = open[:0]
			verify("mounted")
			history(200, "second life")
			for _, c := range open {
				if err := d.AbortARU(c.a); err != nil {
					t.Fatal(err)
				}
				verify("abort")
			}
			noOpenSnapshots(t, d)
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Run("entries", testFreeSetEntries)
}

// testFreeSetEntries reaches, on a fresh log with no automatic
// maintenance in the way, each entry to the free set a random history
// reaches rarely: a segment whose last pin a unit's abort drops, one a
// checkpoint covers after its last live block left, and one the
// checkpoint covered while it was still open, which enters when it
// retires.
func testFreeSetEntries(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	defer d.Close()
	must := func(errs ...error) {
		t.Helper()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	verify := func(step string) {
		t.Helper()
		if err := d.VerifyInternal(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
	}
	// state reports segment s's inputs to segFreeable.
	state := func(s int) (covered bool, live, pins int32) {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.segSeq[s] != 0 && d.segSeq[s] <= d.ckptSeq, d.segLive[s], d.segPins[s]
	}
	lst, err := d.NewList(0)
	must(err)
	// alone writes a fresh block into a segment of its own, which it
	// leaves open, and returns both.
	alone := func(v byte) (BlockID, int) {
		t.Helper()
		retireOpenSegment(t, d)
		b, err := d.NewBlock(0, lst, NilBlock)
		must(err)
		must(d.Write(0, b, fill(d, v)), d.Flush())
		d.mu.Lock()
		defer d.mu.Unlock()
		return b, int(pmapGet(d.blockTab.root, uint64(b)).persist.Seg)
	}

	// The last pin: a unit's shadow copy is all that holds x once a
	// simple write superseded x's only block and a checkpoint covered it.
	b, x := alone(0xa1)
	retireOpenSegment(t, d)
	a, err := d.BeginARU()
	must(err)
	must(d.MoveBlock(a, b, lst, NilBlock), d.Write(0, b, fill(d, 0xa2)), d.Flush(), d.Checkpoint())
	if covered, live, pins := state(x); !covered || live != 0 || pins == 0 {
		t.Fatalf("segment %d: covered %v, %d live, %d pins; want covered and held by the unit's pin alone", x, covered, live, pins)
	}
	verify("held by the pin")
	must(d.AbortARU(a))
	if !freeable(d, x) {
		t.Fatalf("segment %d is not freeable once the abort dropped its last pin", x)
	}
	verify("last pin dropped")

	// The watermark: y's only block is superseded before any checkpoint
	// covers y, which the next one then does.
	b, y := alone(0xb1)
	retireOpenSegment(t, d)
	must(d.Write(0, b, fill(d, 0xb2)), d.Flush())
	if covered, live, pins := state(y); covered || live != 0 || pins != 0 {
		t.Fatalf("segment %d: covered %v, %d live, %d pins; want empty and above the watermark", y, covered, live, pins)
	}
	verify("emptied above the watermark")
	must(d.Checkpoint())
	if !freeable(d, y) {
		t.Fatalf("segment %d is not freeable once the checkpoint covered it", y)
	}
	verify("covered by the checkpoint")

	// The retirement: z's only block is deleted and the deletion flushed
	// and covered while z is still open; it retires with no chunk since.
	b, z := alone(0xc1)
	must(d.DeleteBlock(0, b), d.Flush(), d.Checkpoint())
	d.mu.Lock()
	open := d.curSeg
	d.mu.Unlock()
	if covered, live, pins := state(z); open != z || !covered || live != 0 || pins != 0 {
		t.Fatalf("segment %d (open: %d): covered %v, %d live, %d pins; want open, empty and covered", z, open, covered, live, pins)
	}
	verify("open segment covered")
	retireOpenSegment(t, d)
	if !freeable(d, z) {
		t.Fatalf("segment %d is not freeable once it retired", z)
	}
	verify("covered segment retired")
}

// freeable reports whether segment s of d is freeable (segFreeable).
func freeable(d *LLD, s int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.segFreeable(s)
}
