package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"aru/internal/disk"
	"aru/internal/obs"
)

// prepTestDisk formats a small disk and returns it with its device.
func prepTestDisk(t *testing.T, p Params) (*LLD, *disk.Sim) {
	t.Helper()
	if p.Layout.NumSegs == 0 {
		p.Layout = testLayout(96)
	}
	dev := disk.NewMem(p.Layout.DiskBytes())
	d, err := Format(dev, p)
	if err != nil {
		t.Fatal(err)
	}
	return d, dev
}

// buildPreparedUnit opens an ARU that exercises every listOp kind the
// prepare pre-log must handle: writes, an insert after a predecessor, a
// delete of an existing block, a move, and a whole-list deletion with a
// membership snapshot.
func buildPreparedUnit(t *testing.T, d *LLD) (aru ARUID, keep ListID, doomed ListID) {
	t.Helper()
	var err error
	if keep, err = d.NewList(0); err != nil {
		t.Fatal(err)
	}
	if doomed, err = d.NewList(0); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, d.BlockSize())
	seed, err := d.NewBlock(0, keep, NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := d.NewBlock(0, doomed, NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	if _, err = d.NewBlock(0, doomed, victim); err != nil {
		t.Fatal(err)
	}
	if err = d.Flush(); err != nil {
		t.Fatal(err)
	}

	if aru, err = d.BeginARU(); err != nil {
		t.Fatal(err)
	}
	b1, err := d.NewBlock(aru, keep, seed) // insert after pred
	if err != nil {
		t.Fatal(err)
	}
	copy(buf, []byte("prepared-b1"))
	if err = d.Write(aru, b1, buf); err != nil {
		t.Fatal(err)
	}
	copy(buf, []byte("prepared-seed"))
	if err = d.Write(aru, seed, buf); err != nil { // overwrite pre-existing block
		t.Fatal(err)
	}
	if err = d.MoveBlock(aru, b1, keep, NilBlock); err != nil { // unlink+insert
		t.Fatal(err)
	}
	if err = d.DeleteList(aru, doomed); err != nil { // members snapshot
		t.Fatal(err)
	}
	return aru, keep, doomed
}

func TestPrepareFreezesARU(t *testing.T) {
	d, _ := prepTestDisk(t, Params{})
	defer d.Close()
	aru, keep, _ := buildPreparedUnit(t, d)
	if err := d.PrepareARU(aru, 7, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if err := d.PrepareARU(aru, 8, obs.SpanContext{}); !errors.Is(err, ErrARUPrepared) {
		t.Errorf("second prepare: got %v, want ErrARUPrepared", err)
	}
	if _, err := d.NewBlock(aru, keep, NilBlock); !errors.Is(err, ErrARUPrepared) {
		t.Errorf("NewBlock on prepared ARU: got %v, want ErrARUPrepared", err)
	}
	buf := make([]byte, d.BlockSize())
	if err := d.Read(aru, 1, buf); !errors.Is(err, ErrARUPrepared) {
		t.Errorf("Read on prepared ARU: got %v, want ErrARUPrepared", err)
	}
	if err := d.EndARU(aru); !errors.Is(err, ErrARUPrepared) {
		t.Errorf("EndARU on prepared ARU: got %v, want ErrARUPrepared", err)
	}
	if err := d.CommitPrepared(aru, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if err := d.CommitPrepared(aru, obs.SpanContext{}); !errors.Is(err, ErrNoSuchARU) {
		t.Errorf("CommitPrepared after commit: got %v, want ErrNoSuchARU", err)
	}
	if got := d.Stats().ARUsPrepared; got != 1 {
		t.Errorf("ARUsPrepared = %d, want 1", got)
	}
}

func TestCommitPreparedOnUnprepared(t *testing.T) {
	d, _ := prepTestDisk(t, Params{})
	defer d.Close()
	aru, err := d.BeginARU()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.CommitPrepared(aru, obs.SpanContext{}); !errors.Is(err, ErrBadParam) {
		t.Errorf("CommitPrepared on unprepared ARU: got %v, want ErrBadParam", err)
	}
}

func TestPrepareVariantOld(t *testing.T) {
	d, _ := prepTestDisk(t, Params{Variant: VariantOld})
	defer d.Close()
	aru, err := d.BeginARU()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.PrepareARU(aru, 1, obs.SpanContext{}); !errors.Is(err, ErrPrepareUnsupported) {
		t.Errorf("PrepareARU on VariantOld: got %v, want ErrPrepareUnsupported", err)
	}
}

// TestPrepareCommitSurvivesCrash: the full happy path. The unit is
// prepared, committed with CommitPrepared and flushed; a crash must
// recover the identical logical state — in particular the replay
// entries logged at prepare time must be applied exactly once.
func TestPrepareCommitSurvivesCrash(t *testing.T) {
	d, dev := prepTestDisk(t, Params{})
	aru, _, _ := buildPreparedUnit(t, d)
	if err := d.PrepareARU(aru, 42, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.CommitPrepared(aru, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	want := logicalState(t, d)

	d2, err := Open(dev.Reopen(dev.Image()), Params{})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if err := d2.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
	if got := logicalState(t, d2); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered state differs:\n got %v\nwant %v", got, want)
	}
	if n, err := d2.CheckDisk(); err != nil || n != 0 {
		t.Errorf("second sweep freed %d (%v), want 0", n, err)
	}
}

// TestInDoubtResolution: a crash after the prepare is durable but
// before the commit record leaves the unit in doubt. The resolver's
// verdict decides: true redoes the whole unit, false (and nil) erases
// it tracelessly — its allocations freed by the leak sweep.
func TestInDoubtResolution(t *testing.T) {
	build := func(t *testing.T) (*disk.Sim, diskState, diskState) {
		d, dev := prepTestDisk(t, Params{})
		before := logicalState(t, d) // pre-ARU committed state... captured below
		aru, _, _ := buildPreparedUnit(t, d)
		before = logicalState(t, d) // the ARU's shadow is invisible to Simple
		if err := d.PrepareARU(aru, 42, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		// Commit locally to learn what "redone" must look like, but on
		// a throwaway image: the crash image is taken before this.
		img := dev.Reopen(dev.Image())
		if err := d.CommitPrepared(aru, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
		after := logicalState(t, d)
		d.Close()
		return img, before, after
	}

	t.Run("committed", func(t *testing.T) {
		img, _, want := build(t)
		var asked []uint64
		d2, rpt, err := OpenReport(img, Params{CommitResolver: func(txn uint64) bool {
			asked = append(asked, txn)
			return true
		}})
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Close()
		if len(asked) != 1 || asked[0] != 42 {
			t.Errorf("resolver asked with %v, want [42]", asked)
		}
		if rpt.InDoubt != 1 || rpt.InDoubtCommitted != 1 || rpt.InDoubtAborted != 0 {
			t.Errorf("report %+v: want 1 in doubt, 1 committed", rpt)
		}
		if rpt.MaxPrepareTxn != 42 {
			t.Errorf("MaxPrepareTxn = %d, want 42", rpt.MaxPrepareTxn)
		}
		if err := d2.VerifyInternal(); err != nil {
			t.Fatal(err)
		}
		if got := logicalState(t, d2); !reflect.DeepEqual(got, want) {
			t.Errorf("redone state differs:\n got %v\nwant %v", got, want)
		}
		if n, err := d2.CheckDisk(); err != nil || n != 0 {
			t.Errorf("second sweep freed %d (%v), want 0", n, err)
		}
	})

	t.Run("aborted", func(t *testing.T) {
		img, want, _ := build(t)
		d2, rpt, err := OpenReport(img, Params{CommitResolver: func(uint64) bool { return false }})
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Close()
		if rpt.InDoubt != 1 || rpt.InDoubtAborted != 1 {
			t.Errorf("report %+v: want 1 in doubt, 1 aborted", rpt)
		}
		// The unit allocated one block (b1); presumed abort must sweep it.
		if rpt.LeakedFreed == 0 {
			t.Errorf("leak sweep freed nothing; the aborted unit's allocation leaked")
		}
		if err := d2.VerifyInternal(); err != nil {
			t.Fatal(err)
		}
		if got := logicalState(t, d2); !reflect.DeepEqual(got, want) {
			t.Errorf("presumed abort not traceless:\n got %v\nwant %v", got, want)
		}
		if n, err := d2.CheckDisk(); err != nil || n != 0 {
			t.Errorf("second sweep freed %d (%v), want 0", n, err)
		}
	})

	t.Run("nil-resolver-presumes-abort", func(t *testing.T) {
		img, want, _ := build(t)
		d2, rpt, err := OpenReport(img, Params{})
		if err != nil {
			t.Fatal(err)
		}
		defer d2.Close()
		if rpt.InDoubtAborted != 1 {
			t.Errorf("report %+v: want 1 aborted", rpt)
		}
		if got := logicalState(t, d2); !reflect.DeepEqual(got, want) {
			t.Errorf("nil resolver not traceless:\n got %v\nwant %v", got, want)
		}
	})
}

// TestAbortCancelsPrepare: a live abort of a prepared unit logs an
// abort record that outranks the prepare — recovery must not consult
// the resolver, even if the coordinator would say commit.
func TestAbortCancelsPrepare(t *testing.T) {
	d, dev := prepTestDisk(t, Params{})
	aru, _, _ := buildPreparedUnit(t, d)
	want := logicalState(t, d)
	if err := d.PrepareARU(aru, 42, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.AbortARU(aru); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := logicalState(t, d); !reflect.DeepEqual(got, want) {
		t.Errorf("live abort of prepared unit not traceless:\n got %v\nwant %v", got, want)
	}
	d2, rpt, err := OpenReport(dev.Reopen(dev.Image()), Params{CommitResolver: func(uint64) bool {
		t.Error("resolver consulted despite durable abort record")
		return true
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if rpt.InDoubt != 0 {
		t.Errorf("InDoubt = %d, want 0", rpt.InDoubt)
	}
	if got := logicalState(t, d2); !reflect.DeepEqual(got, want) {
		t.Errorf("recovered abort not traceless:\n got %v\nwant %v", got, want)
	}
}

// TestInDoubtDeleteListSnapshot: the membership a prepared DeleteList
// erases at recovery is the membership the client saw at issue time
// (listOp.members), including blocks that existed before the ARU.
func TestInDoubtDeleteListSnapshot(t *testing.T) {
	d, dev := prepTestDisk(t, Params{})
	lst, err := d.NewList(0)
	if err != nil {
		t.Fatal(err)
	}
	var members []BlockID
	pred := NilBlock
	for i := 0; i < 3; i++ {
		b, err := d.NewBlock(0, lst, pred)
		if err != nil {
			t.Fatal(err)
		}
		members = append(members, b)
		pred = b
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	aru, err := d.BeginARU()
	if err != nil {
		t.Fatal(err)
	}
	if err := d.DeleteList(aru, lst); err != nil {
		t.Fatal(err)
	}
	if err := d.PrepareARU(aru, 9, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	d2, _, err := OpenReport(dev.Reopen(dev.Image()), Params{CommitResolver: func(uint64) bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if lists, err := d2.Lists(0); err != nil || len(lists) != 0 {
		t.Errorf("Lists = %v (%v), want empty after redone DeleteList", lists, err)
	}
	for _, b := range members {
		if _, err := d2.StatBlock(0, b); !errors.Is(err, ErrNoSuchBlock) {
			t.Errorf("block %d: got %v, want ErrNoSuchBlock", b, err)
		}
	}
	if err := d2.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedBlocksCheckpointAndData: the prepared unit's data rides
// its own tagged write entries; after redo its contents must read back.
func TestPreparedDataSurvivesRedo(t *testing.T) {
	d, dev := prepTestDisk(t, Params{})
	lst, err := d.NewList(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	aru, err := d.BeginARU()
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.NewBlock(aru, lst, NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte{0xA7}, d.BlockSize())
	if err := d.Write(aru, b, payload); err != nil {
		t.Fatal(err)
	}
	if err := d.PrepareARU(aru, 3, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	d2, _, err := OpenReport(dev.Reopen(dev.Image()), Params{CommitResolver: func(uint64) bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	got := make([]byte, d2.BlockSize())
	if err := d2.Read(0, b, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("redone block contents differ")
	}
}

// TestPrepareCheckpointBlocked: a prepared unit holds the ARU open, so
// an explicit checkpoint must refuse (its prepare must stay in the
// replay window until resolved).
func TestPrepareCheckpointBlocked(t *testing.T) {
	d, _ := prepTestDisk(t, Params{})
	defer d.Close()
	aru, _, _ := buildPreparedUnit(t, d)
	if err := d.PrepareARU(aru, 1, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); !errors.Is(err, ErrARUActive) {
		t.Errorf("Checkpoint with prepared ARU: got %v, want ErrARUActive", err)
	}
	if err := d.CommitPrepared(aru, obs.SpanContext{}); err != nil {
		t.Fatal(err)
	}
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}
