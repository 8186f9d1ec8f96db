package core

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"aru/internal/disk"
)

// TestSegOwnerTable drives seeded histories — overwrite units, some of
// them aborted, deletions and fresh blocks, flushes, checkpoints and
// cleaner passes — on a small log, then crashes with a unit's allocation
// durable and mounts the image, whose sweep frees the leaked block.
// Every segment's owner table must name exactly its live blocks
// (VerifyInternal) after every step, across the mount too. Last, the
// check itself: one cleared entry must fail VerifyInternal, naming the
// segment.
func TestSegOwnerTable(t *testing.T) {
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
			for i := 0; i < 90; i++ {
				b, err := d.NewBlock(0, lst, NilBlock)
				if err != nil {
					t.Fatal(err)
				}
				if err := d.Write(0, b, fill(d, byte(i))); err != nil {
					t.Fatal(err)
				}
				blocks = append(blocks, b)
			}
			verify("populated")
			for step := 0; step < 400; step++ {
				var err error
				switch r := rng.Intn(20); {
				case r < 12: // an overwrite unit; one in four aborts
					err = ownerUnit(d, rng, blocks)
				case r < 15: // a deletion and a fresh block in its place
					i := rng.Intn(len(blocks))
					if err = d.DeleteBlock(0, blocks[i]); err == nil {
						if blocks[i], err = d.NewBlock(0, lst, NilBlock); err == nil {
							err = d.Write(0, blocks[i], fill(d, byte(step)))
						}
					}
				case r < 17:
					err = d.Flush()
				case r < 18:
					err = d.Checkpoint()
				default:
					_, err = d.Clean(d.FreeSegments() + 3)
				}
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				verify(fmt.Sprint("step ", step))
			}
			if d.Stats().SegmentsCleaned == 0 {
				t.Fatal("the history never cleaned a segment")
			}

			// Crash with an open unit's allocation durable: the mount's sweep
			// frees the block, and its segment's table must lose it.
			a, err := d.BeginARU()
			if err != nil {
				t.Fatal(err)
			}
			leak, err := d.NewBlock(a, lst, NilBlock)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Write(0, leak, fill(d, 0xee)); err != nil {
				t.Fatal(err)
			}
			if err := d.Flush(); err != nil {
				t.Fatal(err)
			}
			d, rpt, err := OpenReport(disk.FromImage(dev.Image(), disk.Geometry{}), p)
			if err != nil {
				t.Fatal(err)
			}
			if rpt.LeakedFreed == 0 {
				t.Fatal("the mount's sweep freed no leaked block")
			}
			if err := d.VerifyInternal(); err != nil {
				t.Fatalf("after the mount: %v", err)
			}
			for step := 0; step < 60; step++ {
				if err := ownerUnit(d, rng, blocks); err != nil {
					t.Fatalf("mounted, step %d: %v", step, err)
				}
			}
			if _, err := d.Clean(d.FreeSegments() + 3); err != nil {
				t.Fatal(err)
			}
			if err := d.VerifyInternal(); err != nil {
				t.Fatalf("mounted, after a cleaner pass: %v", err)
			}

			d.mu.Lock()
			s, i := -1, -1
			for seg, tab := range d.segOwn {
				for j, id := range tab {
					if id != NilBlock {
						s, i = seg, j
					}
				}
			}
			if s < 0 {
				d.mu.Unlock()
				t.Fatal("no segment holds a live block")
			}
			id := d.segOwn[s][i]
			d.segOwn[s][i] = NilBlock
			d.mu.Unlock()
			want := fmt.Sprintf("segment %d owner table", s)
			if err := d.VerifyInternal(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("cleared owner entry: VerifyInternal = %v, want an error naming %q", err, want)
			}
			d.mu.Lock()
			d.segOwn[s][i] = id
			d.mu.Unlock()
			if err := d.VerifyInternal(); err != nil {
				t.Fatalf("owner entry restored: %v", err)
			}
		})
	}
}

// ownerUnit runs one unit overwriting one to three of blocks, aborting
// one unit in four.
func ownerUnit(d *LLD, rng *rand.Rand, blocks []BlockID) error {
	a, err := d.BeginARU()
	if err != nil {
		return err
	}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		if err := d.Write(a, blocks[rng.Intn(len(blocks))], fill(d, byte(rng.Intn(256)))); err != nil {
			return err
		}
	}
	if rng.Intn(4) == 0 {
		return d.AbortARU(a)
	}
	return d.EndARU(a)
}
