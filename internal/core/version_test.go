package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

// TestVersionBound verifies the paper's n+2 bound: with n active ARUs a
// block has at most one shadow version per ARU, one committed version
// and one persistent version.
func TestVersionBound(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	lst, _ := d.NewList(0)
	b, _ := d.NewBlock(0, lst, NilBlock)
	if err := d.Write(0, b, fill(d, 0x01)); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil { // persistent version exists
		t.Fatal(err)
	}
	if err := d.Write(0, b, fill(d, 0x02)); err != nil { // committed version
		t.Fatal(err)
	}

	const n = 7
	var arus []ARUID
	for i := 0; i < n; i++ {
		a, err := d.BeginARU()
		if err != nil {
			t.Fatal(err)
		}
		arus = append(arus, a)
		if err := d.Write(a, b, fill(d, byte(0x10+i))); err != nil {
			t.Fatal(err)
		}
		// Repeated writes in the same ARU must update the shadow
		// version in place, not create more versions.
		if err := d.Write(a, b, fill(d, byte(0x20+i))); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := d.VersionCount(b), n+2; got != want {
		t.Fatalf("VersionCount = %d, want %d (n+2 with n=%d)", got, want, n)
	}

	// Each ARU reads its own latest shadow version (third read-
	// semantics option), the committed view reads the committed one.
	buf := make([]byte, d.BlockSize())
	for i, a := range arus {
		if err := d.Read(a, b, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(0x20+i) {
			t.Fatalf("ARU %d sees %#x, want its own shadow %#x", a, buf[0], 0x20+i)
		}
	}
	if err := d.Read(0, b, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x02 {
		t.Fatalf("committed view sees %#x, want 0x02", buf[0])
	}

	// Commit them all; versions collapse back to <= 2.
	for _, a := range arus {
		if err := d.EndARU(a); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.VersionCount(b); got > 2 {
		t.Fatalf("after commits VersionCount = %d, want <= 2", got)
	}
	// Last committed ARU wins (serialized by EndARU time, §3.1).
	if err := d.Read(0, b, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != byte(0x20+n-1) {
		t.Fatalf("committed view after all commits sees %#x, want %#x", buf[0], 0x20+n-1)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestVersionBoundProperty drives a seeded mixed-ARU workload —
// overlapping units writing the same shared blocks, commits, aborts,
// flushes — and asserts the paper's bound as an invariant after every
// step: no block ever has more than ActiveARUs()+2 live versions.
func TestVersionBoundProperty(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			d, _ := newTestLLD(t, Params{})
			rng := rand.New(rand.NewSource(seed))
			lst, _ := d.NewList(0)
			var blocks []BlockID
			pred := NilBlock
			for i := 0; i < 6; i++ {
				b, err := d.NewBlock(0, lst, pred)
				if err != nil {
					t.Fatal(err)
				}
				blocks = append(blocks, b)
				pred = b
			}
			checkBound := func(step int) {
				t.Helper()
				n := d.ActiveARUs()
				for _, b := range blocks {
					if got := d.VersionCount(b); got > n+2 {
						t.Fatalf("step %d: block %d has %d versions with %d active ARUs (bound %d)",
							step, b, got, n, n+2)
					}
				}
			}
			var open []ARUID
			const steps = 300
			for i := 0; i < steps; i++ {
				switch k := rng.Intn(10); {
				case k < 3 && len(open) < 5: // begin a unit
					a, err := d.BeginARU()
					if err != nil {
						t.Fatal(err)
					}
					open = append(open, a)
				case k < 7 && len(open) > 0: // shadow-write a shared block
					a := open[rng.Intn(len(open))]
					b := blocks[rng.Intn(len(blocks))]
					if err := d.Write(a, b, fill(d, byte(i))); err != nil {
						t.Fatal(err)
					}
				case k < 8 && len(open) > 0: // commit a unit
					j := rng.Intn(len(open))
					if err := d.EndARU(open[j]); err != nil {
						t.Fatal(err)
					}
					open = append(open[:j], open[j+1:]...)
				case k < 9 && len(open) > 0: // abort a unit
					j := rng.Intn(len(open))
					if err := d.AbortARU(open[j]); err != nil {
						t.Fatal(err)
					}
					open = append(open[:j], open[j+1:]...)
				default: // simple write or flush
					if rng.Intn(2) == 0 {
						if err := d.Write(0, blocks[rng.Intn(len(blocks))], fill(d, byte(i))); err != nil {
							t.Fatal(err)
						}
					} else if err := d.Flush(); err != nil {
						t.Fatal(err)
					}
				}
				checkBound(i)
			}
			for _, a := range open {
				if err := d.EndARU(a); err != nil {
					t.Fatal(err)
				}
				checkBound(steps)
			}
			// With no units open the bound collapses to 2.
			for _, b := range blocks {
				if got := d.VersionCount(b); got > 2 {
					t.Fatalf("quiescent block %d has %d versions, want <= 2", b, got)
				}
			}
			if err := d.VerifyInternal(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestAllocationInCommittedState verifies §3.3: allocations inside an
// ARU are immediately committed, so concurrent ARUs never receive the
// same identifier, other clients cannot see the block on any list, and
// an abort leaves the identifier allocated until the sweep.
func TestAllocationInCommittedState(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	lst, _ := d.NewList(0)

	a1, _ := d.BeginARU()
	a2, _ := d.BeginARU()
	seen := make(map[BlockID]bool)
	for i := 0; i < 8; i++ {
		b1, err := d.NewBlock(a1, lst, NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := d.NewBlock(a2, lst, NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		if seen[b1] || seen[b2] || b1 == b2 {
			t.Fatalf("duplicate identifier handed out: %d, %d", b1, b2)
		}
		seen[b1], seen[b2] = true, true
	}
	// Neither ARU's insertions are visible to the committed view…
	if blocks, _ := d.ListBlocks(0, lst); len(blocks) != 0 {
		t.Fatalf("committed view sees uncommitted insertions: %v", blocks)
	}
	// …and each ARU sees only its own 8 blocks.
	for _, a := range []ARUID{a1, a2} {
		if blocks, _ := d.ListBlocks(a, lst); len(blocks) != 8 {
			t.Fatalf("ARU %d sees %d blocks, want 8", a, len(blocks))
		}
	}
	if err := d.EndARU(a1); err != nil {
		t.Fatal(err)
	}
	if err := d.AbortARU(a2); err != nil {
		t.Fatal(err)
	}
	// a1's 8 blocks are committed; a2's are leaked-but-allocated.
	blocks, _ := d.ListBlocks(0, lst)
	if len(blocks) != 8 {
		t.Fatalf("after commit+abort list has %d blocks, want 8", len(blocks))
	}
	freed, err := d.CheckDisk()
	if err != nil {
		t.Fatal(err)
	}
	if freed != 8 {
		t.Fatalf("sweep freed %d blocks, want a2's 8", freed)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentARUsOnOneList exercises two ARUs interleaving list
// operations on the same list and the commit-time merge.
func TestConcurrentARUsOnOneList(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	lst, _ := d.NewList(0)
	base, _ := d.NewBlock(0, lst, NilBlock)

	a1, _ := d.BeginARU()
	a2, _ := d.BeginARU()
	b1, err := d.NewBlock(a1, lst, base) // a1: insert after base
	if err != nil {
		t.Fatal(err)
	}
	b2, err := d.NewBlock(a2, lst, base) // a2: insert after base too
	if err != nil {
		t.Fatal(err)
	}
	if err := d.EndARU(a1); err != nil {
		t.Fatal(err)
	}
	if err := d.EndARU(a2); err != nil {
		t.Fatal(err)
	}
	blocks, err := d.ListBlocks(0, lst)
	if err != nil {
		t.Fatal(err)
	}
	// Both insertions survive; both named base as predecessor, so the
	// merged list is base, then b2 and b1 in some order after it.
	if len(blocks) != 3 || blocks[0] != base {
		t.Fatalf("merged list = %v, want [%d …]", blocks, base)
	}
	rest := map[BlockID]bool{blocks[1]: true, blocks[2]: true}
	if !rest[b1] || !rest[b2] {
		t.Fatalf("merged list = %v, missing %d or %d", blocks, b1, b2)
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestMergeFallbackInsert verifies the documented merge policy: an
// insertion whose predecessor was deleted by an earlier-committing unit
// falls back to the head of the list.
func TestMergeFallbackInsert(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	lst, _ := d.NewList(0)
	b0, _ := d.NewBlock(0, lst, NilBlock)
	pred, _ := d.NewBlock(0, lst, b0)

	a, _ := d.BeginARU()
	nb, err := d.NewBlock(a, lst, pred)
	if err != nil {
		t.Fatal(err)
	}
	// A racing simple operation deletes the predecessor before commit.
	if err := d.DeleteBlock(0, pred); err != nil {
		t.Fatal(err)
	}
	if err := d.EndARU(a); err != nil {
		t.Fatal(err)
	}
	blocks, _ := d.ListBlocks(0, lst)
	if len(blocks) != 2 || blocks[0] != nb || blocks[1] != b0 {
		t.Fatalf("list after fallback = %v, want [%d %d]", blocks, nb, b0)
	}
	if d.Stats().MergeFallbacks == 0 {
		t.Fatalf("fallback not counted")
	}
	if err := d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestDeleteListSemantics checks that DeleteList de-allocates every
// member, in both shadow and committed execution.
func TestDeleteListSemantics(t *testing.T) {
	for _, inARU := range []bool{false, true} {
		t.Run(fmt.Sprintf("inARU=%v", inARU), func(t *testing.T) {
			d, _ := newTestLLD(t, Params{})
			lst, _ := d.NewList(0)
			var blocks []BlockID
			pred := NilBlock
			for i := 0; i < 5; i++ {
				b, err := d.NewBlock(0, lst, pred)
				if err != nil {
					t.Fatal(err)
				}
				blocks = append(blocks, b)
				pred = b
			}
			aru := ARUID(0)
			if inARU {
				aru, _ = d.BeginARU()
			}
			if err := d.DeleteList(aru, lst); err != nil {
				t.Fatal(err)
			}
			if inARU {
				// Still visible in the committed view…
				if _, err := d.ListBlocks(0, lst); err != nil {
					t.Fatalf("committed view lost list before commit: %v", err)
				}
				if err := d.EndARU(aru); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := d.ListBlocks(0, lst); !errors.Is(err, ErrNoSuchList) {
				t.Fatalf("list still exists after DeleteList: %v", err)
			}
			for _, b := range blocks {
				buf := make([]byte, d.BlockSize())
				if err := d.Read(0, b, buf); !errors.Is(err, ErrNoSuchBlock) {
					t.Fatalf("member %d still allocated: %v", b, err)
				}
			}
			if err := d.VerifyInternal(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWriteReadRoundTrip covers data paths: buffered, materialized, and
// persistent versions must all read back the latest contents.
func TestWriteReadRoundTrip(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	lst, _ := d.NewList(0)
	b, _ := d.NewBlock(0, lst, NilBlock)
	buf := make([]byte, d.BlockSize())

	// Buffered committed version.
	if err := d.Write(0, b, fill(d, 0xa1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(0, b, buf); err != nil || buf[0] != 0xa1 {
		t.Fatalf("buffered read: %v %#x", err, buf[0])
	}
	// Materialized + persistent.
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(0, b, buf); err != nil || buf[0] != 0xa1 {
		t.Fatalf("persistent read: %v %#x", err, buf[0])
	}
	// Overwrite after flush: fresh buffer replaces persistent view.
	if err := d.Write(0, b, fill(d, 0xa2)); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(0, b, buf); err != nil || buf[0] != 0xa2 {
		t.Fatalf("re-written read: %v %#x", err, buf[0])
	}
	// An allocated, never-written block reads as zeroes.
	b2, _ := d.NewBlock(0, lst, b)
	if err := d.Read(0, b2, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, len(buf))) {
		t.Fatalf("unwritten block not zero")
	}
}

// TestOldVariantGating ensures a sequential-variant ARU's in-place
// committed updates are never promoted to the persistent state before
// its commit record is logged, even across segment seals.
func TestOldVariantGating(t *testing.T) {
	d, dev := newTestLLD(t, Params{Variant: VariantOld})
	lst, _ := d.NewList(0)
	b, _ := d.NewBlock(0, lst, NilBlock)
	if err := d.Write(0, b, fill(d, 0x01)); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	a, _ := d.BeginARU()
	if err := d.Write(a, b, fill(d, 0x02)); err != nil {
		t.Fatal(err)
	}
	// Force many seals while the ARU is open: the gated version may be
	// materialized but must not become the recovered state.
	for i := 0; i < 40; i++ {
		nb, err := d.NewBlock(a, lst, b)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(a, nb, fill(d, byte(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Flush(); err != nil { // ARU still open!
		t.Fatal(err)
	}
	// Crash before EndARU: recovery must roll the whole unit back.
	d2, err := Open(dev.Reopen(dev.Image()), Params{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d2.BlockSize())
	if err := d2.Read(0, b, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x01 {
		t.Fatalf("uncommitted sequential-ARU write recovered: %#x", buf[0])
	}
	blocks, _ := d2.ListBlocks(0, lst)
	if len(blocks) != 1 {
		t.Fatalf("uncommitted insertions recovered: %v", blocks)
	}
	if err := d2.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestErrorPaths covers the documented error returns.
func TestErrorPaths(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	buf := make([]byte, d.BlockSize())

	if err := d.Read(0, 999, buf); !errors.Is(err, ErrNoSuchBlock) {
		t.Errorf("Read of unallocated block: %v", err)
	}
	if err := d.Write(0, 999, buf); !errors.Is(err, ErrNoSuchBlock) {
		t.Errorf("Write of unallocated block: %v", err)
	}
	if _, err := d.NewBlock(0, 999, NilBlock); !errors.Is(err, ErrNoSuchList) {
		t.Errorf("NewBlock on unallocated list: %v", err)
	}
	if err := d.DeleteList(0, 999); !errors.Is(err, ErrNoSuchList) {
		t.Errorf("DeleteList of unallocated list: %v", err)
	}
	if err := d.EndARU(77); !errors.Is(err, ErrNoSuchARU) {
		t.Errorf("EndARU of unknown ARU: %v", err)
	}
	if err := d.Read(5, 1, buf); !errors.Is(err, ErrNoSuchARU) {
		t.Errorf("Read under unknown ARU: %v", err)
	}
	if err := d.Read(0, 1, buf[:10]); !errors.Is(err, ErrBadParam) {
		t.Errorf("short Read buffer: %v", err)
	}
	lst, _ := d.NewList(0)
	b0, _ := d.NewBlock(0, lst, NilBlock)
	lst2, _ := d.NewList(0)
	if _, err := d.NewBlock(0, lst2, b0); !errors.Is(err, ErrNotMember) {
		t.Errorf("NewBlock with foreign predecessor: %v", err)
	}
	a, _ := d.BeginARU()
	if err := d.EndARU(a); err != nil {
		t.Fatal(err)
	}
	if err := d.EndARU(a); !errors.Is(err, ErrNoSuchARU) {
		t.Errorf("double EndARU: %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(0, b0, buf); !errors.Is(err, ErrClosed) {
		t.Errorf("Read after Close: %v", err)
	}
	if _, err := d.BeginARU(); !errors.Is(err, ErrClosed) {
		t.Errorf("BeginARU after Close: %v", err)
	}
}
