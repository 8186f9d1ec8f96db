package core

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"aru/internal/disk"
	"aru/internal/seg"
)

// diskState is a logical snapshot: every visible list with its members'
// contents, used to compare states across recovery.
type diskState map[ListID][][]byte

func logicalState(t *testing.T, d *LLD) diskState {
	t.Helper()
	out := make(diskState)
	lists, err := d.Lists(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range lists {
		blocks, err := d.ListBlocks(0, l)
		if err != nil {
			t.Fatal(err)
		}
		var contents [][]byte
		for _, b := range blocks {
			buf := make([]byte, d.BlockSize())
			if err := d.Read(0, b, buf); err != nil {
				t.Fatal(err)
			}
			contents = append(contents, buf)
		}
		out[l] = contents
	}
	return out
}

// TestReopenEquality: a cleanly closed disk reopens to the identical
// logical state (invariant 5 in DESIGN.md — the on-disk summaries and
// checkpoint reconstruct exactly the in-memory tables).
func TestReopenEquality(t *testing.T) {
	p := Params{Layout: testLayout(128)}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	// A busy little history: lists, blocks, overwrites, deletions,
	// ARUs, aborts.
	var lists []ListID
	for i := 0; i < 6; i++ {
		l, err := d.NewList(0)
		if err != nil {
			t.Fatal(err)
		}
		lists = append(lists, l)
		pred := NilBlock
		for j := 0; j < 4; j++ {
			b, err := d.NewBlock(0, l, pred)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Write(0, b, fill(d, byte(16*i+j))); err != nil {
				t.Fatal(err)
			}
			pred = b
		}
	}
	a, _ := d.BeginARU()
	nb, _ := d.NewBlock(a, lists[0], NilBlock)
	if err := d.Write(a, nb, fill(d, 0xEE)); err != nil {
		t.Fatal(err)
	}
	if err := d.EndARU(a); err != nil {
		t.Fatal(err)
	}
	a2, _ := d.BeginARU()
	if _, err := d.NewBlock(a2, lists[1], NilBlock); err != nil {
		t.Fatal(err)
	}
	if err := d.AbortARU(a2); err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteList(0, lists[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CheckDisk(); err != nil {
		t.Fatal(err)
	}

	before := logicalState(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dev, Params{})
	if err != nil {
		t.Fatal(err)
	}
	after := logicalState(t, d2)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("state changed across close/open:\nbefore: %d lists\nafter:  %d lists", len(before), len(after))
	}
	if err := d2.VerifyInternal(); err != nil {
		t.Fatal(err)
	}

	// And again, twice: recovery must be idempotent.
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := Open(dev, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if again := logicalState(t, d3); !reflect.DeepEqual(after, again) {
		t.Fatalf("second recovery diverged")
	}
}

// crashWorkload drives a deterministic sequence of ARUs against d:
// ARU k creates list k with three blocks of payload k, bumps a shared
// counter block to k, and deletes the list created three ARUs earlier.
// It stops silently when the device dies. Returns the counter block and
// the list IDs indexed by ARU number.
type crashWorkload struct {
	counter BlockID
	lists   []ListID
}

func runCrashWorkload(d *LLD, numARUs int, flushEvery int) (crashWorkload, error) {
	w := crashWorkload{lists: make([]ListID, numARUs+1)}
	ctrList, err := d.NewList(0)
	if err != nil {
		return w, err
	}
	if w.counter, err = d.NewBlock(0, ctrList, NilBlock); err != nil {
		return w, err
	}
	if err := d.Flush(); err != nil {
		return w, err
	}
	buf := make([]byte, d.BlockSize())
	for k := 1; k <= numARUs; k++ {
		a, err := d.BeginARU()
		if err != nil {
			return w, err
		}
		l, err := d.NewList(a)
		if err != nil {
			return w, err
		}
		w.lists[k] = l
		pred := NilBlock
		for j := 0; j < 3; j++ {
			b, err := d.NewBlock(a, l, pred)
			if err != nil {
				return w, err
			}
			for i := range buf {
				buf[i] = byte(k)
			}
			if err := d.Write(a, b, buf); err != nil {
				return w, err
			}
			pred = b
		}
		for i := range buf {
			buf[i] = byte(k)
		}
		buf[0] = byte(k) // counter value in byte 0
		if err := d.Write(a, w.counter, buf); err != nil {
			return w, err
		}
		if k >= 4 {
			if err := d.DeleteList(a, w.lists[k-3]); err != nil {
				return w, err
			}
		}
		if err := d.EndARU(a); err != nil {
			return w, err
		}
		if flushEvery > 0 && k%flushEvery == 0 {
			if err := d.Flush(); err != nil {
				return w, err
			}
		}
	}
	return w, d.Flush()
}

// verifyPrefix checks that the recovered disk is exactly the state
// after some prefix of m committed ARUs — the all-or-nothing invariant
// plus the order-preserving-stream invariant (a later ARU can never be
// durable while an earlier one is not).
func verifyPrefix(t *testing.T, d *LLD, w crashWorkload, numARUs int, crashPoint int64) int {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Fatalf("crash point %d: %s", crashPoint, fmt.Sprintf(format, args...))
	}
	buf := make([]byte, d.BlockSize())
	if w.counter == NilBlock {
		return 0 // died before the workload even allocated the counter
	}
	if err := d.Read(0, w.counter, buf); err != nil {
		// The counter's allocation never became durable: nothing of
		// the workload can have committed.
		return 0
	}
	m := int(buf[0])
	if m > numARUs {
		fail("counter %d beyond workload", m)
	}
	// The counter block's whole payload must be from the same write.
	for i := 1; i < len(buf); i++ {
		if buf[i] != byte(m) && !(i == 0) {
			if m == 0 && buf[i] == 0 {
				continue
			}
			fail("counter block torn: byte %d is %#x, counter %d", i, buf[i], m)
		}
	}
	// Exactly the lists of the prefix state must exist: list k alive
	// iff k <= m and k+3 > m.
	for k := 1; k <= numARUs; k++ {
		if w.lists[k] == NilList {
			if k <= m {
				fail("ARU %d committed but its list ID is unknown", k)
			}
			continue
		}
		blocks, err := d.ListBlocks(0, w.lists[k])
		alive := k <= m && k+3 > m
		if !alive {
			if err == nil && len(blocks) > 0 {
				fail("list %d (ARU %d) should be dead at prefix %d, has %v", w.lists[k], k, m, blocks)
			}
			continue
		}
		if err != nil {
			fail("list of committed ARU %d missing: %v", k, err)
		}
		if len(blocks) != 3 {
			fail("ARU %d list has %d blocks, want 3 (torn unit)", k, len(blocks))
		}
		for _, b := range blocks {
			if err := d.Read(0, b, buf); err != nil {
				fail("reading block of ARU %d: %v", k, err)
			}
			want := bytes.Repeat([]byte{byte(k)}, len(buf))
			if !bytes.Equal(buf, want) {
				fail("ARU %d block holds %#x, want %#x", k, buf[0], k)
			}
		}
	}
	if err := d.VerifyInternal(); err != nil {
		fail("invariants: %v", err)
	}
	return m
}

// TestCrashSweepAtomicity is the core all-or-nothing property test: the
// workload is crashed after every possible device write, with torn
// final writes, and every recovered state must be a clean prefix of the
// committed ARUs. Both builds must provide the guarantee — the 1993
// LLD's sequential ARUs were recovery-atomic too.
func TestCrashSweepAtomicity(t *testing.T) {
	for _, variant := range []Variant{VariantNew, VariantOld} {
		variant := variant
		t.Run(variant.String(), func(t *testing.T) {
			crashSweepAtomicity(t, variant)
		})
	}
}

func crashSweepAtomicity(t *testing.T, variant Variant) {
	const numARUs = 24
	layout := testLayout(192)

	// Crash-free run to count device writes.
	clean := disk.NewMem(layout.DiskBytes())
	d, err := Format(clean, Params{Layout: layout, Variant: variant})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runCrashWorkload(d, numARUs, 5); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	total := clean.Stats().Writes
	if total < 20 {
		t.Fatalf("suspiciously few writes: %d", total)
	}

	maxSeen := 0
	for k := int64(1); k <= total; k++ {
		dev := disk.NewMem(layout.DiskBytes())
		dev.SetFaultPlan(disk.FaultPlan{CrashAfterWrites: k, TornSectors: int(k % 9)})
		d, err := Format(dev, Params{Layout: layout, Variant: variant})
		var w crashWorkload
		if err == nil {
			w, _ = runCrashWorkload(d, numARUs, 5) // errors = power failure
		}
		if !dev.Crashed() {
			continue
		}
		d2, err := Open(dev.Reopen(dev.Image()), Params{})
		if err != nil {
			// Crashing inside Format may leave no valid superblock or
			// initial checkpoint: "never initialized" is consistent.
			if k <= 4 {
				continue
			}
			t.Fatalf("crash point %d: recovery failed: %v", k, err)
		}
		m := verifyPrefix(t, d2, w, numARUs, k)
		if m > maxSeen {
			maxSeen = m
		}
	}
	if maxSeen == 0 {
		t.Fatalf("no crash point ever preserved a committed ARU — sweep is vacuous")
	}
}

// TestCrashSweepInterleaved crashes a workload of two interleaved ARU
// streams: begin A, begin B, operate on both, commit B before A. The
// durable set must respect commit order, not begin order.
func TestCrashSweepInterleaved(t *testing.T) {
	layout := testLayout(128)
	const rounds = 10

	// One round: ARUs A (list 2r+1) and B (list 2r+2) interleave; B
	// commits first. Commit order: B1 A1 B2 A2 …
	run := func(d *LLD) ([]ListID, error) {
		var order []ListID
		buf := make([]byte, d.BlockSize())
		for r := 0; r < rounds; r++ {
			a, err := d.BeginARU()
			if err != nil {
				return order, err
			}
			b, err := d.BeginARU()
			if err != nil {
				return order, err
			}
			la, err := d.NewList(a)
			if err != nil {
				return order, err
			}
			lb, err := d.NewList(b)
			if err != nil {
				return order, err
			}
			for j := 0; j < 2; j++ {
				ba, err := d.NewBlock(a, la, NilBlock)
				if err != nil {
					return order, err
				}
				bb, err := d.NewBlock(b, lb, NilBlock)
				if err != nil {
					return order, err
				}
				for i := range buf {
					buf[i] = byte(2*r + 1)
				}
				if err := d.Write(a, ba, buf); err != nil {
					return order, err
				}
				for i := range buf {
					buf[i] = byte(2*r + 2)
				}
				if err := d.Write(b, bb, buf); err != nil {
					return order, err
				}
			}
			if err := d.EndARU(b); err != nil { // B commits first
				return order, err
			}
			order = append(order, lb)
			if err := d.EndARU(a); err != nil {
				return order, err
			}
			order = append(order, la)
			if r%3 == 2 {
				if err := d.Flush(); err != nil {
					return order, err
				}
			}
		}
		return order, d.Flush()
	}

	clean := disk.NewMem(layout.DiskBytes())
	d, err := Format(clean, Params{Layout: layout})
	if err != nil {
		t.Fatal(err)
	}
	fullOrder, err := run(d)
	if err != nil {
		t.Fatal(err)
	}
	_ = d.Close()
	total := clean.Stats().Writes

	for k := int64(1); k <= total; k++ {
		dev := disk.NewMem(layout.DiskBytes())
		dev.SetFaultPlan(disk.FaultPlan{CrashAfterWrites: k, TornSectors: -1})
		d, err := Format(dev, Params{Layout: layout})
		var order []ListID
		if err == nil {
			order, _ = run(d)
		}
		if !dev.Crashed() {
			continue
		}
		d2, err := Open(dev.Reopen(dev.Image()), Params{})
		if err != nil {
			if k <= 4 {
				continue
			}
			t.Fatalf("crash point %d: recovery failed: %v", k, err)
		}
		_ = order
		// The set of durable *committed* ARUs must be a prefix of
		// commit order. A list may exist while empty: list allocation
		// is unconditional (committed-state allocation, §3.3), so an
		// uncommitted ARU leaves an empty list behind — that is a
		// leaked allocation, not a torn unit.
		prefixEnded := false
		for _, l := range fullOrder {
			blocks, err := d2.ListBlocks(0, l)
			committed := err == nil && len(blocks) > 0
			if committed {
				if prefixEnded {
					t.Fatalf("crash point %d: durable ARUs are not a commit-order prefix", k)
				}
				if len(blocks) != 2 {
					t.Fatalf("crash point %d: torn unit on list %d: %v", k, l, blocks)
				}
			} else {
				prefixEnded = true
			}
		}
		if err := d2.VerifyInternal(); err != nil {
			t.Fatalf("crash point %d: %v", k, err)
		}
	}
}

// TestCheckpointFallback corrupts the newest checkpoint region and
// verifies recovery falls back to the older one plus a longer replay.
// CkptCompactEvery: -1 makes every checkpoint a full base, so the two
// regions alternate and both hold valid chains before the corruption.
func TestCheckpointFallback(t *testing.T) {
	p := Params{Layout: testLayout(64), CheckpointEvery: -1, CkptCompactEvery: -1}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	lst, _ := d.NewList(0)
	b, _ := d.NewBlock(0, lst, NilBlock)
	if err := d.Write(0, b, fill(d, 0x11)); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil { // checkpoint #1 (region 1)
		t.Fatal(err)
	}
	if err := d.Write(0, b, fill(d, 0x22)); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil { // checkpoint #2 (region 0)
		t.Fatal(err)
	}
	if err := d.Write(0, b, fill(d, 0x33)); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	// Find and corrupt the newest checkpoint region.
	img := dev.Image()
	layout := p.Layout
	best, bestOff := uint64(0), int64(0)
	for i := 0; i < 2; i++ {
		off := layout.CkptOff(i)
		ch, err := seg.DecodeCkptChain(img[off : off+layout.CkptRegionBytes()])
		if err == nil && ch.Head().CkptTS > best {
			best, bestOff = ch.Head().CkptTS, off
		}
	}
	if best == 0 {
		t.Fatal("no valid checkpoint found")
	}
	img[bestOff+16] ^= 0xff // corrupt the header

	d2, rpt, err := OpenReport(dev.Reopen(img), Params{})
	if err != nil {
		t.Fatalf("recovery with corrupt newest checkpoint: %v", err)
	}
	if rpt.CheckpointTS >= best {
		t.Fatalf("recovery used the corrupt checkpoint (ts %d)", rpt.CheckpointTS)
	}
	buf := make([]byte, d2.BlockSize())
	if err := d2.Read(0, b, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x33 {
		t.Fatalf("replay from older checkpoint lost data: %#x", buf[0])
	}
	if err := d2.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailSegmentIgnored verifies that a torn final segment write
// is treated as if it never happened.
func TestTornTailSegmentIgnored(t *testing.T) {
	p := Params{Layout: testLayout(64)}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	lst, _ := d.NewList(0)
	b, _ := d.NewBlock(0, lst, NilBlock)
	if err := d.Write(0, b, fill(d, 0x01)); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	// Next burst dies mid-segment-write (only 2 sectors land).
	writes := dev.Stats().Writes
	dev.SetFaultPlan(disk.FaultPlan{CrashAfterWrites: writes, TornSectors: 2})
	if err := d.Write(0, b, fill(d, 0x02)); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err == nil {
		t.Fatal("flush should have died")
	}
	d2, err := Open(dev.Reopen(dev.Image()), Params{})
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d2.BlockSize())
	if err := d2.Read(0, b, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 0x01 {
		t.Fatalf("torn segment leaked: %#x", buf[0])
	}
}

// TestFormatWipesEveryChunkHeader: a new lifetime restarts the sequence
// numbers, so a workload repeated on a re-formatted image writes a chunk 1
// identical to the old one — same numbers, same bytes, same header CRC —
// and the old lifetime's chunk 2, directly below, would chain under it.
// Format therefore wipes the header of every chunk it can walk to, not
// only the trailers.
func TestFormatWipesEveryChunkHeader(t *testing.T) {
	p := Params{Layout: testLayout(8), CheckpointEvery: -1}
	dev := disk.NewMem(p.Layout.DiskBytes())
	first := func(d *LLD) (ListID, BlockID) {
		lst, err := d.NewList(0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := d.NewBlock(0, lst, NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(0, b, fill(d, 0xA1)); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		return lst, b
	}
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	lst, _ := first(d)
	b2, err := d.NewBlock(0, lst, NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(0, b2, fill(d, 0xB2)); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	old, open := dev.Image(), d.curSeg
	seg0 := func(img []byte) []byte { return img[p.Layout.SegOff(open):p.Layout.SegOff(open+1)] }
	if chunks, err := seg.Walk(p.Layout, seg0(old)); err != nil || len(chunks) != 2 {
		t.Fatalf("first lifetime: %d chunks in segment %d, %v; want 2", len(chunks), open, err)
	}

	// The second lifetime, on the same device, gets as far as chunk 1.
	d, err = Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	lst, b1 := first(d)
	img := dev.Image()
	chunks, err := seg.Walk(p.Layout, seg0(img))
	if err != nil || len(chunks) != 1 || d.curSeg != open {
		t.Fatalf("second lifetime: %d chunks in segment %d (open: %d), %v; want 1", len(chunks), open, d.curSeg, err)
	}
	if oldChunks, _ := seg.Walk(p.Layout, seg0(old)); oldChunks[0].Trailer != chunks[0].Trailer {
		t.Fatalf("the repeated workload did not repeat chunk 1: %+v then %+v — the test has no teeth", oldChunks[0].Trailer, chunks[0].Trailer)
	}
	dev.Crash()
	r, err := Open(dev.Reopen(dev.Image()), p)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := r.ListBlocks(0, lst); err != nil || len(got) != 1 || got[0] != b1 {
		t.Fatalf("recovered list holds %v (%v), want only block %d: the old lifetime's chunk 2 was replayed", got, err, b1)
	}
	if err := r.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}
