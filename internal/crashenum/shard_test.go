package crashenum

import (
	"strings"
	"testing"
)

func TestParseMultiStateRoundTrip(t *testing.T) {
	for _, s := range []string{
		"G17/E0K0/E1K3/E2K5T4:1",
		"G1/E0K0/E0K0",
		"G900/E3K7D5,6/E1K0/E2K2",
	} {
		ms, err := ParseDescriptor(s)
		if err != nil {
			t.Fatalf("parse %q: %v", s, err)
		}
		if got := ms.String(); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
	for _, s := range []string{"", "G5", "E0K0/E0K0", "Gx/E0K0", "G5/bogus"} {
		if _, err := ParseDescriptor(s); err == nil {
			t.Errorf("parse %q: expected error", s)
		}
	}
}

// TestShardClean explores multi-device crash states of the sharded
// 2PC workload and expects zero violations: cross-shard units must be
// all-or-nothing across shards through every reachable combination of
// per-device crash states.
func TestShardClean(t *testing.T) {
	o := Options{Seed: 1, Seeds: 2, Workloads: []string{"shard"}, Shards: 2, MaxStates: 350}
	if testing.Short() {
		o.Seeds, o.MaxStates = 1, 150
	}
	rpt, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rpt.Violations {
		t.Errorf("shard seed=%d state=%s shrunk=%s: %v", v.Seed, v.State, v.Shrunk, v.Desc)
	}
	if rpt.States < o.MaxStates {
		t.Fatalf("explored only %d states, wanted %d", rpt.States, o.MaxStates)
	}
}

// TestShardCleanThreeShards widens the device count: three shard logs
// plus the coordinator, so the cross-device mask enumeration covers
// 2^4 extremes per instant.
func TestShardCleanThreeShards(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	o := Options{Seed: 3, Seeds: 1, Workloads: []string{"shard"}, Shards: 3, MaxStates: 150}
	rpt, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rpt.Violations {
		t.Errorf("shard seed=%d state=%s: %v", v.Seed, v.Shrunk, v.Desc)
	}
	if rpt.States < o.MaxStates {
		t.Fatalf("explored only %d states, wanted %d", rpt.States, o.MaxStates)
	}
}

// TestShardInDoubtReplay drives recovery through the in-doubt window
// by hand: crash with every shard's prepare durable but at the
// extremes of the coordinator device (floor = decision may be lost,
// full = decision durable). Both must recover cleanly — the checker's
// enumeration covers these, but this pins the window explicitly and
// proves the descriptors replay.
func TestShardInDoubtReplay(t *testing.T) {
	o := Options{Shards: 2}
	x, err := runShard(1, o)
	if err != nil {
		t.Fatal(err)
	}
	j := journalsOf(x.recs)
	ndev := len(j.ops)

	// Find a crash instant at the coordinator's commit sync for a
	// cross-shard unit: a coordinator sync G where both shards have
	// sealed epochs covering their prepares (their last sync before G).
	coord := ndev - 1
	var hit int
	for _, G := range j.syncs[coord] {
		if G <= x.start {
			continue
		}
		st := State{G: G, Dev: make([]CrashState, ndev)}
		for i := 0; i < ndev; i++ {
			e, inflight := devAt(j.ops[i], j.syncs[i], G)
			// Shards at full (everything issued by G landed), so the
			// prepares are present; coordinator at floor (epoch sealed
			// by this very sync not yet durable) — the in-doubt window.
			if i == coord {
				st.Dev[i] = CrashState{Epoch: e, Keep: 0, TearOp: -1}
			} else {
				st.Dev[i] = CrashState{Epoch: e, Keep: len(inflight), TearOp: -1}
			}
		}
		hit++
		desc := st.String()
		if parsed, err := ParseDescriptor(desc); err != nil || parsed.String() != desc {
			t.Fatalf("descriptor %q does not parse back: %v", desc, err)
		}
		if viols, err := Replay("shard", 1, o, desc); err != nil {
			t.Fatalf("replay %q: %v", desc, err)
		} else if len(viols) != 0 {
			t.Errorf("in-doubt state %s (decision lost): %v", desc, viols)
		}

		// Same instant with the coordinator fully landed: the decision
		// is durable, recovery must redo the prepares.
		e, inflight := devAt(j.ops[coord], j.syncs[coord], G)
		st.Dev[coord] = CrashState{Epoch: e, Keep: len(inflight), TearOp: -1}
		if viols, err := Replay("shard", 1, o, st.String()); err != nil {
			t.Fatalf("replay %q: %v", st, err)
		} else if len(viols) != 0 {
			t.Errorf("in-doubt state %s (decision durable): %v", st, viols)
		}
	}
	if hit == 0 {
		t.Fatal("workload produced no coordinator syncs — no cross-shard commit exercised")
	}
}

// TestShardInjectionCaught validates the multi-device oracle end to
// end: syncing the coordinator's commit record before the participant
// prepares reach stable storage must produce a reachable crash state
// where the decision is durable but a prepare is lost — a partial
// cross-shard commit. The artifact must reproduce, and the same state
// must be clean on the correct protocol.
func TestShardInjectionCaught(t *testing.T) {
	o := Options{Seed: 1, Seeds: 3, Workloads: []string{"shard"}, Shards: 2,
		Inject:    "commit-before-prepare-sync",
		MaxStates: 6000, MaxViolationsPerRun: 1}
	rpt, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rpt.Violations) == 0 {
		t.Fatalf("commit-before-prepare-sync not caught in %d states", rpt.States)
	}
	v := rpt.Violations[0]
	if !strings.Contains(v.Artifact, "-workloads shard") || !strings.Contains(v.Artifact, "-replay G") {
		t.Errorf("artifact %q not replayable", v.Artifact)
	}
	for _, desc := range []string{v.State, v.Shrunk} {
		if st, err := ParseDescriptor(desc); err != nil || len(st.Dev) != 3 {
			t.Fatalf("shard violation descriptor %q is not a three-device state: %v", desc, err)
		}
	}
	viols, err := Replay(v.Workload, v.Seed, o, v.Shrunk)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) == 0 {
		t.Errorf("artifact %q does not reproduce", v.Artifact)
	}
	// No clean-engine cross-replay here: a multi-device descriptor is
	// only meaningful against the journal it was found on. The correct
	// protocol's schedule differs (prepares flushed before the
	// coordinator sync), so the same raw descriptor imposed on its
	// journal need not be a reachable state at any single instant G.
	// The clean engine's safety over its own reachable states is what
	// TestShardClean establishes.
}
