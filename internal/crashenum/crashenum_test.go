package crashenum

import (
	"bytes"
	"testing"

	"aru/internal/workload"
)

func TestParseStateRoundTrip(t *testing.T) {
	cases := []CrashState{
		{Epoch: 0, Keep: 0, TearOp: -1},
		{Epoch: 7, Keep: 3, TearOp: -1},
		{Epoch: 12, Keep: 9, Drop: []int{5}, TearOp: -1},
		{Epoch: 12, Keep: 9, Drop: []int{4, 6, 7}, TearOp: -1},
		{Epoch: 3, Keep: 4, TearOp: 3, TearSectors: 2},
		{Epoch: 3, Keep: 8, Drop: []int{5, 6}, TearOp: 7, TearSectors: 11},
	}
	for _, cs := range cases {
		s := cs.String()
		got, err := ParseState(s)
		if err != nil {
			t.Fatalf("ParseState(%q): %v", s, err)
		}
		if got.String() != s {
			t.Fatalf("round trip %q -> %q", s, got.String())
		}
	}
	for _, bad := range []string{"", "E3", "K4", "E3K", "ExK4", "E3K4D", "E3K4T5", "E3K4T5:", "E3K4junk"} {
		if _, err := ParseState(bad); err == nil {
			t.Errorf("ParseState(%q): expected error", bad)
		}
	}
}

// TestEnumerationDeterminism checks that the same journal and seed
// always produce the same sequence of crash states, and that
// MaterializeState reconstructs exactly the image ForEachState handed
// out — the property replay and shrinking depend on.
func TestEnumerationDeterminism(t *testing.T) {
	res, err := runMixed(1, workload.MixedParams{Units: 12}, "")
	if err != nil {
		t.Fatal(err)
	}
	journal, size := res.rec.Journal(), res.rec.Size()
	type rec struct {
		cs  CrashState
		sum []byte
	}
	collect := func() []rec {
		var out []rec
		ForEachState(journal, size, res.startEpoch, 3, 1, func(cs CrashState, img []byte) bool {
			out = append(out, rec{cs, append([]byte(nil), img[:256]...)})
			return len(out) < 60
		})
		return out
	}
	a, b := collect(), collect()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("non-deterministic state counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].cs.String() != b[i].cs.String() || !bytes.Equal(a[i].sum, b[i].sum) {
			t.Fatalf("state %d differs between runs: %s vs %s", i, a[i].cs, b[i].cs)
		}
	}
	// Spot-check MaterializeState against the streamed images.
	ForEachState(journal, size, res.startEpoch, 3, 1, func(cs CrashState, img []byte) bool {
		if !bytes.Equal(MaterializeState(journal, size, cs), img) {
			t.Fatalf("MaterializeState(%s) differs from enumerated image", cs)
		}
		return cs.Epoch < res.startEpoch+2
	})
}

// TestCleanEngine explores crash states of both workloads against the
// real engine and expects zero violations.
func TestCleanEngine(t *testing.T) {
	o := Options{Seed: 1, Seeds: 1, Mixed: true, FS: true, MaxStates: 250}
	if testing.Short() {
		o.MaxStates = 80
	}
	rpt, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rpt.Violations) != 0 {
		for _, v := range rpt.Violations {
			t.Errorf("%s seed=%d state=%s shrunk=%s: %v", v.Workload, v.Seed, v.State, v.Shrunk, v.Desc)
		}
	}
	if rpt.States < o.MaxStates {
		t.Fatalf("explored only %d states, wanted %d", rpt.States, o.MaxStates)
	}
}

// TestWrapWorkloadClean explores the wrapped-log workload — the one
// whose crash states include a reused segment's rewrite overtaking the
// seal that emptied it — and expects zero violations. (An engine that
// lets a seal's frees be reused before a sync covers the seal fails it
// on every seed.)
func TestWrapWorkloadClean(t *testing.T) {
	o := Options{Seed: 1, Seeds: 2, Wrap: true}
	if testing.Short() {
		o.Seeds = 1
	}
	rpt, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rpt.Violations {
		t.Errorf("%s seed=%d state=%s shrunk=%s: %v", v.Workload, v.Seed, v.State, v.Shrunk, v.Desc)
	}
	if rpt.States < 200*o.Seeds {
		t.Fatalf("explored only %d states", rpt.States)
	}
}

// TestInjectionsCaught validates the oracle end to end: each
// deliberately broken engine build must produce violations, and every
// artifact must reproduce under Replay.
func TestInjectionsCaught(t *testing.T) {
	for _, inject := range []string{"nosync", "untagged-replay", "ack-early"} {
		t.Run(inject, func(t *testing.T) {
			// Four seeds: with segment continuation the first script in
			// which a seal splits a unit from its commit record — what
			// untagged-replay needs — is mixed seed 4.
			o := Options{Seed: 1, Seeds: 4, Mixed: true, FS: true, Inject: inject,
				MaxStates: 4000, MaxViolationsPerRun: 1}
			rpt, err := Run(o)
			if err != nil {
				t.Fatal(err)
			}
			if len(rpt.Violations) == 0 {
				t.Fatalf("inject=%s: bug not caught in %d states", inject, rpt.States)
			}
			v := rpt.Violations[0]
			// The shrunk state must still fail, and must not be larger
			// than the original.
			if v.Shrunk.Epoch > v.State.Epoch ||
				(v.Shrunk.Epoch == v.State.Epoch && v.Shrunk.Keep > v.State.Keep) ||
				len(v.Shrunk.Drop) > len(v.State.Drop) {
				t.Errorf("shrunk state %s larger than original %s", v.Shrunk, v.State)
			}
			viols, err := Replay(v.Workload, v.Seed, o, v.Shrunk)
			if err != nil {
				t.Fatal(err)
			}
			if len(viols) == 0 {
				t.Errorf("artifact %q does not reproduce", v.Artifact)
			}
			// The same state must be clean on the unbroken engine.
			clean := o
			clean.Inject = ""
			if viols, err := Replay(v.Workload, v.Seed, clean, v.Shrunk); err != nil {
				t.Fatal(err)
			} else if len(viols) != 0 {
				t.Errorf("state %s also fails the real engine: %v", v.Shrunk, viols)
			}
		})
	}
}

// TestNetClean explores crash states of the network workload — the
// engine behind an ldnet server, durability judged by acks the client
// received — and expects zero violations: every CommitDurable whose
// reply reached the client must survive any later crash, units acked
// by plain EndARU must be all-or-nothing, and units whose effects were
// mid-flight may vanish but never tear.
func TestNetClean(t *testing.T) {
	o := Options{Seed: 1, Seeds: 3, Net: true, MaxStates: 250,
		MixedParams: workload.MixedParams{Units: 24}}
	if testing.Short() {
		o.Seeds, o.MaxStates = 1, 80
	}
	rpt, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rpt.Violations {
		t.Errorf("%s seed=%d state=%s shrunk=%s: %v", v.Workload, v.Seed, v.State, v.Shrunk, v.Desc)
	}
	if rpt.States < o.MaxStates {
		t.Fatalf("explored only %d states, wanted %d", rpt.States, o.MaxStates)
	}
}

// TestNetJournalDeterministic: the net workload must journal
// deterministically across runs (one synchronous client, sequential
// server), or replay artifacts would not reproduce.
func TestNetJournalDeterministic(t *testing.T) {
	a, err := runNet(3, workload.MixedParams{}, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := runNet(3, workload.MixedParams{}, "")
	if err != nil {
		t.Fatal(err)
	}
	ja, jb := a.rec.Journal(), b.rec.Journal()
	if len(ja) != len(jb) || len(ja) == 0 {
		t.Fatalf("journal lengths differ across runs: %d vs %d", len(ja), len(jb))
	}
	for i := range ja {
		if ja[i].Off != jb[i].Off || ja[i].Epoch != jb[i].Epoch || !bytes.Equal(ja[i].Data, jb[i].Data) {
			t.Fatalf("journal op %d differs: off %d/%d epoch %d/%d",
				i, ja[i].Off, jb[i].Off, ja[i].Epoch, jb[i].Epoch)
		}
	}
}

// TestRecoverCrashClean crashes recovery itself: sampled clean crash
// states have their first recovery journaled and sub-enumerated, and
// every double-crash image must re-recover clean — the REDO-only
// idempotence argument of DESIGN.md §15, checked mechanically.
func TestRecoverCrashClean(t *testing.T) {
	o := Options{Seed: 1, Seeds: 2, Mixed: true, MaxStates: 400,
		RecoverCrash: true, RecoverSample: 1}
	if testing.Short() {
		o.MaxStates = 120
	}
	rpt, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rpt.Violations {
		t.Errorf("%s seed=%d state=%s: %v", v.Workload, v.Seed, v.State, v.Desc)
	}
	if rpt.States < o.MaxStates {
		t.Fatalf("explored only %d states, wanted %d", rpt.States, o.MaxStates)
	}
}

// TestTornDeltaCaught validates the oracle against the broken
// checkpoint publish barrier (FaultHooks.TornDeltaPublish): an
// incremental delta record that advances the segment-reuse watermark
// without being synced first. The enumerator must find a crash state
// where the record is lost while a reused segment overwrite survived,
// the shrunk artifact must reproduce, and the same state must be clean
// on the real engine. The workload is the wrapped log: a segment is
// retired only when full, so the stock scripts, which flush every few
// operations, no longer rewrite a segment in the epoch of the record that
// freed it.
func TestTornDeltaCaught(t *testing.T) {
	o := Options{Seed: 1, Seeds: 8, Wrap: true, Inject: "torn-delta",
		MaxViolationsPerRun: 1}
	rpt, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rpt.Violations) == 0 {
		t.Fatalf("torn-delta bug not caught in %d states", rpt.States)
	}
	v := rpt.Violations[0]
	viols, err := Replay(v.Workload, v.Seed, o, v.Shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) == 0 {
		t.Errorf("artifact %q does not reproduce", v.Artifact)
	}
	clean := o
	clean.Inject = ""
	if viols, err := Replay(v.Workload, v.Seed, clean, v.Shrunk); err != nil {
		t.Fatal(err)
	} else if len(viols) != 0 {
		t.Errorf("state %s also fails the real engine: %v", v.Shrunk, viols)
	}
}

// TestConcFlushClean explores crash states of the mixed workload with
// concurrent-committer phases (several goroutines calling Flush at
// once, coalesced by the group-commit broker) and expects zero
// violations — one device sync covering many logical commits must
// still honor the Recorder's sync-epoch barrier model.
func TestConcFlushClean(t *testing.T) {
	o := Options{Seed: 1, Seeds: 2, Mixed: true, MaxStates: 250,
		MixedParams: workload.MixedParams{ConcFlushers: 4}}
	if testing.Short() {
		o.Seeds, o.MaxStates = 1, 80
	}
	rpt, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rpt.Violations {
		t.Errorf("%s seed=%d state=%s shrunk=%s: %v", v.Workload, v.Seed, v.State, v.Shrunk, v.Desc)
	}
	if rpt.States < o.MaxStates {
		t.Fatalf("explored only %d states, wanted %d", rpt.States, o.MaxStates)
	}
}

// TestConcFlushJournalDeterministic: a script with concurrent-flush
// phases must still journal deterministically — whichever goroutine
// leads the first batch seals everything buffered, and later batches
// find nothing to do. Replay and shrinking depend on this.
func TestConcFlushJournalDeterministic(t *testing.T) {
	wp := workload.MixedParams{Units: 12, ConcFlushers: 4}
	a, err := runMixed(1, wp, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := runMixed(1, wp, "")
	if err != nil {
		t.Fatal(err)
	}
	ja, jb := a.rec.Journal(), b.rec.Journal()
	if len(ja) != len(jb) {
		t.Fatalf("journal lengths differ across runs: %d vs %d", len(ja), len(jb))
	}
	for i := range ja {
		if ja[i].Off != jb[i].Off || ja[i].Epoch != jb[i].Epoch || !bytes.Equal(ja[i].Data, jb[i].Data) {
			t.Fatalf("journal op %d differs: off %d/%d epoch %d/%d",
				i, ja[i].Off, jb[i].Off, ja[i].Epoch, jb[i].Epoch)
		}
	}
	if a.rec.Epoch() != b.rec.Epoch() {
		t.Fatalf("final epochs differ: %d vs %d", a.rec.Epoch(), b.rec.Epoch())
	}
}

// TestShrink checks the minimizer on a synthetic failure predicate.
func TestShrink(t *testing.T) {
	// Fails whenever the prefix includes write 5 without write 3.
	fails := func(cs CrashState) bool {
		if cs.Keep < 6 {
			return false
		}
		for _, d := range cs.Drop {
			if d == 3 {
				return true
			}
		}
		return false
	}
	got := Shrink(CrashState{Epoch: 4, Keep: 11, Drop: []int{2, 3, 7}, TearOp: 9, TearSectors: 3}, fails)
	if !fails(got) {
		t.Fatalf("shrunk state %s does not fail", got)
	}
	if got.Keep != 6 || len(got.Drop) != 1 || got.Drop[0] != 3 || got.TearOp != -1 {
		t.Errorf("expected minimal E4K6D3, got %s", got)
	}
}
