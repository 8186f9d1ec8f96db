package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// shadowUnit is one engine prepared for a unit of every shadow
// operation: l[0] holds b[0], b[1], b[2] in that order, l[1] holds b[3]
// and l[2] holds b[4]; every block holds fill(1).
type shadowUnit struct {
	d *LLD
	b [5]BlockID
	l [3]ListID
}

func newShadowUnit(t *testing.T, p Params) *shadowUnit {
	t.Helper()
	d, _ := newTestLLD(t, p)
	u := &shadowUnit{d: d}
	for i := range u.l {
		u.l[i], _ = d.NewList(0)
	}
	for i, lst := range []int{0, 0, 0, 1, 2} {
		pred := NilBlock
		if i > 0 && lst == 0 {
			pred = u.b[i-1]
		}
		var err error
		if u.b[i], err = d.NewBlock(0, u.l[lst], pred); err != nil {
			t.Fatalf("NewBlock: %v", err)
		}
		if err := d.Write(0, u.b[i], fill(d, 1)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	return u
}

// steps returns the unit's operations after BeginARU, each named: three
// writes, a DeleteBlock, a MoveBlock and a DeleteList, all in a's shadow
// state.
func (u *shadowUnit) steps(a ARUID) []struct {
	name string
	op   func() error
} {
	d := u.d
	return []struct {
		name string
		op   func() error
	}{
		{"Write", func() error { return d.Write(a, u.b[0], fill(d, 10)) }},
		{"Write", func() error { return d.Write(a, u.b[1], fill(d, 11)) }},
		{"Write", func() error { return d.Write(a, u.b[2], fill(d, 12)) }},
		{"DeleteBlock", func() error { return d.DeleteBlock(a, u.b[1]) }},
		{"MoveBlock", func() error { return d.MoveBlock(a, u.b[2], u.l[1], NilBlock) }},
		{"DeleteList", func() error { return d.DeleteList(a, u.l[2]) }},
	}
}

// unitEpochs runs the unit of every shadow operation on a fresh engine
// and returns the epochs published from BeginARU through EndARU. It
// counts with d.stats directly: Stats publishes a pending edit.
func unitEpochs(t *testing.T, p Params) int64 {
	t.Helper()
	u := newShadowUnit(t, p)
	defer u.d.Close()
	before := lockedStats(u.d).EpochsPublished
	a, err := u.d.BeginARU()
	if err != nil {
		t.Fatalf("BeginARU: %v", err)
	}
	for _, s := range u.steps(a) {
		if err := s.op(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}
	if err := u.d.EndARU(a); err != nil {
		t.Fatalf("EndARU: %v", err)
	}
	return lockedStats(u.d).EpochsPublished - before
}

// observe renders what one read entry point shows of u's blocks and
// lists in aru's view; an error (ErrNoSuchARU above all) fails the test.
func (u *shadowUnit) observe(t *testing.T, entry string, aru ARUID) string {
	t.Helper()
	d := u.d
	var sb strings.Builder
	read, members, lists := d.Read, d.ListBlocks, d.Lists
	if entry == "AcquireSnapshot" {
		h, err := d.AcquireSnapshot()
		if err != nil {
			t.Fatalf("AcquireSnapshot: %v", err)
		}
		defer h.Release()
		read, members, lists = h.Read, h.ListBlocks, h.Lists
	}
	buf := make([]byte, d.BlockSize())
	noSuch := func(err error, want error) bool {
		if err != nil && !errors.Is(err, want) {
			t.Fatalf("%s in view %d: %v", entry, aru, err)
		}
		return err != nil
	}
	if entry == "Read" || entry == "AcquireSnapshot" {
		for _, b := range u.b {
			if err := read(aru, b, buf); noSuch(err, ErrNoSuchBlock) {
				sb.WriteString("x ")
			} else {
				fmt.Fprintf(&sb, "%d ", buf[0])
			}
		}
	}
	if entry == "StatBlock" {
		for _, b := range u.b {
			if info, err := d.StatBlock(aru, b); noSuch(err, ErrNoSuchBlock) {
				sb.WriteString("x ")
			} else {
				fmt.Fprintf(&sb, "%d ", info.List)
			}
		}
	}
	if entry == "ListBlocks" || entry == "AcquireSnapshot" {
		for _, l := range u.l {
			if m, err := members(aru, l); noSuch(err, ErrNoSuchList) {
				sb.WriteString("x ")
			} else {
				fmt.Fprintf(&sb, "%v ", m)
			}
		}
	}
	if entry == "Lists" || entry == "AcquireSnapshot" {
		ids, err := lists(aru)
		noSuch(err, nil)
		fmt.Fprintf(&sb, "%v", ids)
	}
	return sb.String()
}

// publishNow publishes whatever the window holds, as a reference the
// entry point under test must already have matched on its own.
func publishNow(d *LLD) {
	d.mu.Lock()
	d.publishLocked()
	d.mu.Unlock()
}

// TestShadowOpsPublishNothing pins the publish rule of DESIGN.md §16: a
// VariantNew unit's BeginARU and shadow operations leave the epoch head
// alone, so the unit publishes once, at EndARU — unless simple reads see
// shadows (ReadAnyShadow), units run in the committed state (VariantOld)
// or the operation sealed a chunk. Each read entry point with the unit's
// id publishes a pending edit first and sees it, while a concurrent
// simple Read never does.
func TestShadowOpsPublishNothing(t *testing.T) {
	for _, c := range []struct {
		name string
		p    Params
		want int64
	}{
		{"own-shadow", Params{}, 1},
		{"committed", Params{ReadSemantics: ReadCommitted}, 1},
		{"any-shadow", Params{ReadSemantics: ReadAnyShadow}, 8},
		{"old", Params{Variant: VariantOld}, 8},
	} {
		if got := unitEpochs(t, c.p); got != c.want {
			t.Errorf("%s: the unit published %d epochs, want %d", c.name, got, c.want)
		}
	}

	for _, entry := range []string{"Read", "ListBlocks", "Lists", "StatBlock", "AcquireSnapshot"} {
		u := newShadowUnit(t, Params{})
		d := u.d
		committed := u.observe(t, entry, 0)

		// A simple reader beside the unit sees the committed contents of
		// every block on every read.
		stop, simpleErr := make(chan struct{}), make(chan error, 1)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, d.BlockSize())
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, b := range u.b {
					if err := d.Read(0, b, buf); err != nil || buf[0] != 1 {
						simpleErr <- fmt.Errorf("simple Read of block %d: %v, byte %d", b, err, buf[0])
						return
					}
				}
			}
		}()

		a, err := d.BeginARU()
		if err != nil {
			t.Fatalf("BeginARU: %v", err)
		}
		// BeginARU published nothing, yet the unit's view exists.
		prev := u.observe(t, entry, a)
		if prev != committed {
			t.Fatalf("%s after BeginARU: unit view %q, committed %q", entry, prev, committed)
		}
		for _, s := range u.steps(a) {
			epochs := lockedStats(d).EpochsPublished
			if err := s.op(); err != nil {
				t.Fatalf("%s: %v", s.name, err)
			}
			if got := lockedStats(d).EpochsPublished; got != epochs {
				t.Fatalf("%s published %d epochs", s.name, got-epochs)
			}
			seen := u.observe(t, entry, a)
			publishNow(d)
			if want := u.observe(t, entry, a); seen != want {
				t.Fatalf("%s after %s: unit view %q, want %q", entry, s.name, seen, want)
			}
			if got := u.observe(t, entry, 0); got != committed {
				t.Fatalf("%s after %s: simple view %q, committed %q", entry, s.name, got, committed)
			}
			prev = seen
		}
		close(stop)
		wg.Wait()
		select {
		case err := <-simpleErr:
			t.Fatalf("%s: %v", entry, err)
		default:
		}
		if err := d.EndARU(a); err != nil {
			t.Fatalf("EndARU: %v", err)
		}
		if got := u.observe(t, entry, 0); got != prev {
			t.Fatalf("%s after EndARU: committed view %q, the unit's last view %q", entry, got, prev)
		}
		d.Close()
	}

	// A shadow write whose room check seals a chunk publishes: the seal
	// changes what simple readers find in the open segment. Simple writes
	// to fresh blocks fill the open segment until a unit's write seals it.
	u := newShadowUnit(t, Params{})
	defer u.d.Close()
	d := u.d
	a, err := d.BeginARU()
	if err != nil {
		t.Fatalf("BeginARU: %v", err)
	}
	for i := 0; ; i++ {
		if i == 1000 {
			t.Fatal("no shadow write sealed a chunk in 1000 rounds")
		}
		nb, err := d.NewBlock(0, u.l[1], NilBlock)
		if err != nil {
			t.Fatalf("NewBlock: %v", err)
		}
		if err := d.Write(0, nb, fill(d, byte(i))); err != nil {
			t.Fatalf("simple Write: %v", err)
		}
		seq, epochs := d.nextSeq, lockedStats(d).EpochsPublished
		if err := d.Write(a, u.b[0], fill(d, byte(i))); err != nil {
			t.Fatalf("shadow Write: %v", err)
		}
		published := lockedStats(d).EpochsPublished - epochs
		if d.nextSeq == seq {
			if published != 0 {
				t.Fatalf("a shadow write that sealed nothing published %d epochs", published)
			}
			continue
		}
		if published != 1 {
			t.Fatalf("a shadow write that sealed a chunk published %d epochs, want 1", published)
		}
		break
	}
	if err := d.EndARU(a); err != nil {
		t.Fatalf("EndARU: %v", err)
	}
}

// TestUnitReadAfterDeferredPublish referees the order in publishLocked:
// the pending flag clears only after the head swing. Cleared before it, a
// unit's reader could find the flag clear, load the old head and get
// ErrNoSuchARU for its own unit, or miss its own write. Several clients
// begin a unit, write and read back in it while the others publish.
func TestUnitReadAfterDeferredPublish(t *testing.T) {
	d, _ := newTestLLD(t, Params{})
	defer d.Close()
	lst, _ := d.NewList(0)
	const clients, rounds = 4, 300
	var blocks [clients]BlockID
	for i := range blocks {
		blocks[i], _ = d.NewBlock(0, lst, NilBlock)
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			b, buf := blocks[c], make([]byte, d.BlockSize())
			for i := 0; i < rounds; i++ {
				v := byte(i)
				a, err := d.BeginARU()
				if err == nil {
					err = d.Write(a, b, fill(d, v))
				}
				if err == nil {
					err = d.Read(a, b, buf)
				}
				if err == nil && buf[0] != v {
					err = fmt.Errorf("unit %d read %d, its own write was %d", a, buf[0], v)
				}
				if err == nil {
					_, err = d.StatBlock(a, b)
				}
				if err == nil && i%2 == 0 {
					err = d.EndARU(a)
				} else if err == nil {
					err = d.AbortARU(a)
				}
				if err != nil {
					errs <- fmt.Errorf("client %d round %d: %w", c, i, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
