package shard

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"aru/internal/core"
	"aru/internal/disk"
	"aru/internal/obs"
	"aru/internal/seg"
)

func testLayout() seg.Layout {
	return seg.Layout{
		BlockSize: 1024,
		SegBytes:  8192,
		NumSegs:   96,
		MaxBlocks: 2048,
		MaxLists:  512,
	}
}

// rig is a sharded disk over recyclable in-memory devices.
type rig struct {
	devs  []*disk.Sim
	coord *disk.Sim
	d     *Disk
}

func newRig(t *testing.T, n int, o Options) *rig {
	t.Helper()
	if o.Params.Layout.NumSegs == 0 {
		o.Params.Layout = testLayout()
		o.Params.CheckpointEvery = 8
		o.Params.CacheBlocks = 128
	}
	r := &rig{coord: disk.NewMem(CoordBytes(64))}
	var devs []disk.Disk
	for i := 0; i < n; i++ {
		dev := disk.NewMem(o.Params.Layout.DiskBytes())
		r.devs = append(r.devs, dev)
		devs = append(devs, dev)
	}
	d, err := Format(devs, r.coord, o)
	if err != nil {
		t.Fatal(err)
	}
	r.d = d
	return r
}

// recycle models a whole-machine power cycle: every shard device and
// the coordinator device keep their contents, all volatile state is
// lost, and the disk is re-opened through full recovery.
func (r *rig) recycle(t *testing.T, o Options) []core.RecoveryReport {
	t.Helper()
	var devs []disk.Disk
	for i, dev := range r.devs {
		r.devs[i] = dev.Reopen(dev.Image())
		devs = append(devs, r.devs[i])
	}
	r.coord = r.coord.Reopen(r.coord.Image())
	d, reports, err := OpenReport(devs, r.coord, o)
	if err != nil {
		t.Fatal(err)
	}
	r.d = d
	return reports
}

// state captures the full committed logical state visible through the
// sharded disk: every list, its membership, and every member's bytes.
type state map[ListID]map[BlockID][]byte

func snapState(t *testing.T, d *Disk) state {
	t.Helper()
	lists, err := d.Lists(0)
	if err != nil {
		t.Fatal(err)
	}
	st := make(state)
	for _, l := range lists {
		members, err := d.ListBlocks(0, l)
		if err != nil {
			t.Fatal(err)
		}
		st[l] = make(map[BlockID][]byte)
		for _, b := range members {
			buf := make([]byte, d.BlockSize())
			if err := d.Read(0, b, buf); err != nil {
				t.Fatal(err)
			}
			st[l][b] = buf
		}
	}
	return st
}

func payload(d *Disk, tag int) []byte {
	p := make([]byte, d.BlockSize())
	for i := range p {
		p[i] = byte(tag*31 + i)
	}
	return p
}

// twoShardLists returns one list on each of the first two shards.
func twoShardLists(t *testing.T, d *Disk) (l0, l1 ListID) {
	t.Helper()
	for {
		l, err := d.NewList(0)
		if err != nil {
			t.Fatal(err)
		}
		switch d.ShardOfList(l) {
		case 0:
			if l0 == 0 {
				l0 = l
			}
		case 1:
			if l1 == 0 {
				l1 = l
			}
		}
		if l0 != 0 && l1 != 0 {
			return l0, l1
		}
	}
}

func TestRoutingRoundTrip(t *testing.T) {
	r := newRig(t, 4, Options{})
	defer r.d.Close()
	d := r.d
	// Lists spread round-robin; every id routes back to its shard, and
	// blocks are co-located with their list.
	seen := make(map[int]bool)
	for k := 0; k < 8; k++ {
		l, err := d.NewList(0)
		if err != nil {
			t.Fatal(err)
		}
		si := d.ShardOfList(l)
		seen[si] = true
		b, err := d.NewBlock(0, l, core.NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		if d.shardOf(uint64(b)) != si {
			t.Fatalf("block %d on shard %d, its list %d on shard %d", b, d.shardOf(uint64(b)), l, si)
		}
		if members, err := d.ListBlocks(0, l); err != nil || len(members) != 1 || members[0] != b {
			t.Fatalf("ListBlocks(%d) = %v (%v), want [%d]", l, members, err, b)
		}
		info, err := d.StatBlock(0, b)
		if err != nil || info.ID != b || info.List != l {
			t.Fatalf("StatBlock(%d) = %+v (%v), want ID=%d List=%d", b, info, err, b, l)
		}
	}
	if len(seen) != 4 {
		t.Errorf("round-robin used %d of 4 shards", len(seen))
	}
	lists, err := d.Lists(0)
	if err != nil || len(lists) != 8 {
		t.Fatalf("Lists = %v (%v), want 8 lists", lists, err)
	}
	if !sort.SliceIsSorted(lists, func(i, j int) bool { return lists[i] < lists[j] }) {
		t.Errorf("Lists not sorted: %v", lists)
	}
}

func TestCrossShardMoveRejected(t *testing.T) {
	r := newRig(t, 2, Options{})
	defer r.d.Close()
	l0, l1 := twoShardLists(t, r.d)
	b, err := r.d.NewBlock(0, l0, core.NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.d.MoveBlock(0, b, l1, core.NilBlock); !errors.Is(err, ErrCrossShardMove) {
		t.Errorf("cross-shard MoveBlock: got %v, want ErrCrossShardMove", err)
	}
	// Same-shard moves still work through the id translation.
	l0b, err := r.d.NewBlock(0, l0, core.NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.d.MoveBlock(0, b, l0, l0b); err != nil {
		t.Fatal(err)
	}
	members, err := r.d.ListBlocks(0, l0)
	if err != nil || !reflect.DeepEqual(members, []BlockID{l0b, b}) {
		t.Errorf("after move: %v (%v), want [%d %d]", members, err, l0b, b)
	}
}

func TestFastPathSingleShard(t *testing.T) {
	r := newRig(t, 2, Options{})
	defer r.d.Close()
	d := r.d
	l0, _ := twoShardLists(t, d)
	a, err := d.BeginARU()
	if err != nil {
		t.Fatal(err)
	}
	b, err := d.NewBlock(a, l0, core.NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Write(a, b, payload(d, 1)); err != nil {
		t.Fatal(err)
	}
	if err := d.EndARU(a); err != nil {
		t.Fatal(err)
	}
	st := d.ShardStats()
	if st.FastPathCommits != 1 || st.CrossShardCommits != 0 {
		t.Errorf("fast=%d cross=%d, want 1/0", st.FastPathCommits, st.CrossShardCommits)
	}
	if st.CoordRecords != 0 {
		t.Errorf("fast path wrote %d coordinator records", st.CoordRecords)
	}
	if st.Engine.ARUsPrepared != 0 {
		t.Errorf("fast path prepared %d ARUs", st.Engine.ARUsPrepared)
	}
	// An empty unit also takes the fast path.
	a2, _ := d.BeginARU()
	if err := d.EndARU(a2); err != nil {
		t.Fatal(err)
	}
	if got := d.ShardStats().FastPathCommits; got != 2 {
		t.Errorf("FastPathCommits = %d, want 2", got)
	}
}

func TestCrossShardCommitAndRecovery(t *testing.T) {
	for _, seq := range []bool{true, false} {
		t.Run(fmt.Sprintf("sequential=%v", seq), func(t *testing.T) {
			o := Options{Faults: &FaultHooks{Sequential: seq}}
			r := newRig(t, 2, o)
			d := r.d
			l0, l1 := twoShardLists(t, d)
			a, err := d.BeginARU()
			if err != nil {
				t.Fatal(err)
			}
			b0, err := d.NewBlock(a, l0, core.NilBlock)
			if err != nil {
				t.Fatal(err)
			}
			b1, err := d.NewBlock(a, l1, core.NilBlock)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Write(a, b0, payload(d, 10)); err != nil {
				t.Fatal(err)
			}
			if err := d.Write(a, b1, payload(d, 11)); err != nil {
				t.Fatal(err)
			}
			if err := d.EndARU(a); err != nil {
				t.Fatal(err)
			}
			st := d.ShardStats()
			if st.CrossShardCommits != 1 || st.Engine.ARUsPrepared != 2 || st.CoordRecords != 1 {
				t.Errorf("cross=%d prepared=%d coord=%d, want 1/2/1",
					st.CrossShardCommits, st.Engine.ARUsPrepared, st.CoordRecords)
			}
			want := snapState(t, d)
			if len(want[l0]) != 1 || len(want[l1]) != 1 {
				t.Fatalf("committed state incomplete: %v", want)
			}

			// The 2PC commit is durable by construction — no Flush was
			// called, yet a full-machine crash must keep the unit.
			reports := r.recycle(t, o)
			defer r.d.Close()
			inDoubt, committed := 0, 0
			for _, rpt := range reports {
				inDoubt += rpt.InDoubt
				committed += rpt.InDoubtCommitted
			}
			if inDoubt != 2 || committed != 2 {
				t.Errorf("recovery resolved %d/%d in doubt as committed, want 2/2", committed, inDoubt)
			}
			if got := snapState(t, r.d); !reflect.DeepEqual(got, want) {
				t.Errorf("recovered state differs:\n got %v\nwant %v", got, want)
			}
			if !bytes.Equal(want[l0][b0], payload(r.d, 10)) || !bytes.Equal(want[l1][b1], payload(r.d, 11)) {
				t.Errorf("recovered contents differ")
			}
			if err := r.d.VerifyInternal(); err != nil {
				t.Fatal(err)
			}
			if n, err := r.d.CheckDisk(); err != nil || n != 0 {
				t.Errorf("sweep freed %d (%v), want 0", n, err)
			}
		})
	}
}

func TestCrossShardAbortTraceless(t *testing.T) {
	r := newRig(t, 2, Options{})
	defer r.d.Close()
	d := r.d
	l0, l1 := twoShardLists(t, d)
	want := snapState(t, d)
	a, err := d.BeginARU()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.NewBlock(a, l0, core.NilBlock); err != nil {
		t.Fatal(err)
	}
	if _, err := d.NewBlock(a, l1, core.NilBlock); err != nil {
		t.Fatal(err)
	}
	if err := d.AbortARU(a); err != nil {
		t.Fatal(err)
	}
	if got := snapState(t, d); !reflect.DeepEqual(got, want) {
		t.Errorf("abort left traces:\n got %v\nwant %v", got, want)
	}
	if got := d.ShardStats().CrossShardAborts; got != 1 {
		t.Errorf("CrossShardAborts = %d, want 1", got)
	}
}

// TestCrossShardLeakSweep is the in-doubt abort path end to end: a
// cross-shard unit allocates blocks on two shards, its prepares become
// durable, and the machine dies before the coordinator record. Each
// shard's recovery must presume abort, erase the unit tracelessly, and
// its consistency sweep must free the unit's allocations on that
// shard.
func TestCrossShardLeakSweep(t *testing.T) {
	o := Options{Faults: &FaultHooks{Sequential: true}}
	r := newRig(t, 2, o)
	d := r.d
	l0, l1 := twoShardLists(t, d)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	want := snapState(t, d)

	a, err := d.BeginARU()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.NewBlock(a, l0, core.NilBlock); err != nil {
		t.Fatal(err)
	}
	if _, err := d.NewBlock(a, l1, core.NilBlock); err != nil {
		t.Fatal(err)
	}
	// Run phase 1 by hand — prepare both participants and make the
	// prepares durable — and then crash before any coordinator record
	// exists, the in-doubt window the resolver must close as abort.
	d.mu.Lock()
	u := d.units[a]
	d.mu.Unlock()
	if len(u.order) != 2 {
		t.Fatalf("unit touched %d shards, want 2", len(u.order))
	}
	txn := d.nextTxn.Add(1) - 1
	for _, i := range u.order {
		if err := d.shards[i].PrepareARU(u.locals[i], txn, obs.SpanContext{}); err != nil {
			t.Fatal(err)
		}
		if err := d.shards[i].Flush(); err != nil {
			t.Fatal(err)
		}
		if got := d.shards[i].Stats().ARUsPrepared; got != 1 {
			t.Fatalf("shard %d: %d prepared ARUs, want 1", i, got)
		}
	}

	reports := r.recycle(t, o)
	defer r.d.Close()
	for i, rpt := range reports {
		if rpt.InDoubt != 1 || rpt.InDoubtAborted != 1 {
			t.Errorf("shard %d: in-doubt %d aborted %d, want 1/1", i, rpt.InDoubt, rpt.InDoubtAborted)
		}
		// The unit's NewBlock allocation on this shard is the leak the
		// sweep must free.
		if rpt.LeakedFreed == 0 {
			t.Errorf("shard %d: sweep freed nothing; aborted unit's allocation leaked", i)
		}
	}
	if got := snapState(t, r.d); !reflect.DeepEqual(got, want) {
		t.Errorf("presumed abort not traceless:\n got %v\nwant %v", got, want)
	}
	if err := r.d.VerifyInternal(); err != nil {
		t.Fatal(err)
	}
	if n, err := r.d.CheckDisk(); err != nil || n != 0 {
		t.Errorf("second sweep freed %d (%v), want 0", n, err)
	}
}

func TestCoordinatorGC(t *testing.T) {
	o := Options{}
	r := newRig(t, 2, o)
	d := r.d
	l0, l1 := twoShardLists(t, d)
	commit := func() {
		a, err := d.BeginARU()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.NewBlock(a, l0, core.NilBlock); err != nil {
			t.Fatal(err)
		}
		if _, err := d.NewBlock(a, l1, core.NilBlock); err != nil {
			t.Fatal(err)
		}
		if err := d.EndARU(a); err != nil {
			t.Fatal(err)
		}
	}
	commit()
	commit()
	if got := d.ShardStats().CoordRecords; got != 2 {
		t.Fatalf("CoordRecords = %d, want 2", got)
	}
	txnBefore := d.nextTxn.Load()
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := d.ShardStats().CoordRecords; got != 0 {
		t.Errorf("CoordRecords after checkpoint = %d, want 0", got)
	}
	// Transaction ids stay monotone across the reset.
	commit()
	if d.nextTxn.Load() <= txnBefore {
		t.Errorf("txn counter went backwards after reset")
	}
	want := snapState(t, d)
	// Recovery after the reset: the checkpoints hold everything, no
	// in-doubt units exist, and the erased records are never missed.
	reports := r.recycle(t, o)
	defer r.d.Close()
	for i, rpt := range reports {
		if rpt.InDoubtAborted != 0 {
			t.Errorf("shard %d: %d in-doubt aborted after clean GC", i, rpt.InDoubtAborted)
		}
	}
	if got := snapState(t, r.d); !reflect.DeepEqual(got, want) {
		t.Errorf("state differs after GC + recovery")
	}
	// The open-time txn floor still clears every id any shard has seen.
	if r.d.nextTxn.Load() < txnBefore {
		t.Errorf("reopened txn floor %d below pre-GC %d", r.d.nextTxn.Load(), txnBefore)
	}
}

// TestShardStatsSumEveryField: the composition's engine counters are the
// field-wise sum of its shards' — every field, gauges included — and
// Stats serves the same sum as ShardStats.
func TestShardStatsSumEveryField(t *testing.T) {
	r := newRig(t, 2, Options{})
	d := r.d
	defer d.Close()
	l0, l1 := twoShardLists(t, d)
	for i := 0; i < 3; i++ {
		a, err := d.BeginARU()
		if err != nil {
			t.Fatal(err)
		}
		for _, l := range []ListID{l0, l1} {
			b, err := d.NewBlock(a, l, core.NilBlock)
			if err != nil {
				t.Fatal(err)
			}
			if err := d.Write(a, b, payload(d, i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.EndARU(a); err != nil {
			t.Fatal(err)
		}
		if err := d.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	snapState(t, d)

	st := d.ShardStats()
	var sum core.Stats
	sv := reflect.ValueOf(&sum).Elem()
	for _, ps := range st.PerShard {
		pv := reflect.ValueOf(ps)
		for i := 0; i < pv.NumField(); i++ {
			sv.Field(i).SetInt(sv.Field(i).Int() + pv.Field(i).Int())
		}
	}
	if sum.CkptDeltas == 0 || sum.EpochsPublished == 0 {
		t.Fatalf("the workload wrote no delta checkpoint or published no epoch: %+v", sum)
	}
	ev := reflect.ValueOf(st.Engine)
	for i := 0; i < ev.NumField(); i++ {
		if got, want := ev.Field(i).Int(), sv.Field(i).Int(); got != want {
			t.Errorf("Engine.%s = %d, the shards sum to %d", ev.Type().Field(i).Name, got, want)
		}
	}
	if got := d.Stats(); got != st.Engine {
		t.Errorf("Stats() = %+v, ShardStats().Engine = %+v", got, st.Engine)
	}
}

func TestCoordinatorLogFull(t *testing.T) {
	// A 2-slot coordinator: the third cross-shard commit must fail
	// cleanly (unit aborted, not half-committed).
	o := Options{Params: core.Params{Layout: testLayout(), CheckpointEvery: 8, CacheBlocks: 128}}
	coord := disk.NewMem(CoordBytes(2))
	var devs []disk.Disk
	var sims []*disk.Sim
	for i := 0; i < 2; i++ {
		dev := disk.NewMem(o.Params.Layout.DiskBytes())
		sims = append(sims, dev)
		devs = append(devs, dev)
	}
	d, err := Format(devs, coord, o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	l0, l1 := twoShardLists(t, d)
	cross := func() error {
		a, err := d.BeginARU()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.NewBlock(a, l0, core.NilBlock); err != nil {
			t.Fatal(err)
		}
		if _, err := d.NewBlock(a, l1, core.NilBlock); err != nil {
			t.Fatal(err)
		}
		return d.EndARU(a)
	}
	if err := cross(); err != nil {
		t.Fatal(err)
	}
	if err := cross(); err != nil {
		t.Fatal(err)
	}
	want := snapState(t, d)
	if err := cross(); !errors.Is(err, ErrCoordFull) {
		t.Fatalf("third commit: got %v, want ErrCoordFull", err)
	}
	if got := snapState(t, d); !reflect.DeepEqual(got, want) {
		t.Errorf("failed commit left traces")
	}
	// Checkpoint reclaims the log; commits work again.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := cross(); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownARU(t *testing.T) {
	r := newRig(t, 2, Options{})
	defer r.d.Close()
	if err := r.d.EndARU(99); !errors.Is(err, core.ErrNoSuchARU) {
		t.Errorf("EndARU(99): got %v, want ErrNoSuchARU", err)
	}
	if err := r.d.Write(99, 1, make([]byte, r.d.BlockSize())); !errors.Is(err, core.ErrNoSuchARU) {
		t.Errorf("Write(99): got %v, want ErrNoSuchARU", err)
	}
}

func TestZeroIDRejected(t *testing.T) {
	// The routing arithmetic is undefined on the zero id (it would
	// underflow to shard (2^64-1) mod N); every routed operation must
	// reject it cleanly instead.
	r := newRig(t, 3, Options{})
	defer r.d.Close()
	d := r.d
	buf := make([]byte, d.BlockSize())
	if err := d.Read(0, core.NilBlock, buf); !errors.Is(err, core.ErrNoSuchBlock) {
		t.Errorf("Read(0): got %v, want ErrNoSuchBlock", err)
	}
	if err := d.Write(0, core.NilBlock, buf); !errors.Is(err, core.ErrNoSuchBlock) {
		t.Errorf("Write(0): got %v, want ErrNoSuchBlock", err)
	}
	if err := d.DeleteBlock(0, core.NilBlock); !errors.Is(err, core.ErrNoSuchBlock) {
		t.Errorf("DeleteBlock(0): got %v, want ErrNoSuchBlock", err)
	}
	if _, err := d.StatBlock(0, core.NilBlock); !errors.Is(err, core.ErrNoSuchBlock) {
		t.Errorf("StatBlock(0): got %v, want ErrNoSuchBlock", err)
	}
	if err := d.MoveBlock(0, core.NilBlock, 1, core.NilBlock); !errors.Is(err, core.ErrNoSuchBlock) {
		t.Errorf("MoveBlock(block 0): got %v, want ErrNoSuchBlock", err)
	}
	if _, err := d.NewBlock(0, core.NilList, core.NilBlock); !errors.Is(err, core.ErrNoSuchList) {
		t.Errorf("NewBlock(list 0): got %v, want ErrNoSuchList", err)
	}
	if err := d.DeleteList(0, core.NilList); !errors.Is(err, core.ErrNoSuchList) {
		t.Errorf("DeleteList(0): got %v, want ErrNoSuchList", err)
	}
	if _, err := d.ListBlocks(0, core.NilList); !errors.Is(err, core.ErrNoSuchList) {
		t.Errorf("ListBlocks(0): got %v, want ErrNoSuchList", err)
	}
	b, err := d.NewBlock(0, mustList(t, d), core.NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.MoveBlock(0, b, core.NilList, core.NilBlock); !errors.Is(err, core.ErrNoSuchList) {
		t.Errorf("MoveBlock(list 0): got %v, want ErrNoSuchList", err)
	}
}

func mustList(t *testing.T, d *Disk) ListID {
	t.Helper()
	l, err := d.NewList(0)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestFormatErasesStaleCoordRecords(t *testing.T) {
	// Re-formatting a device that held an older coordinator log must
	// leave no CRC-valid record anywhere past the append point: the
	// open-time scan stops at the first invalid sector, so once the new
	// log fills slot 0 a stale record at slot 1 would be scanned as
	// committed and could wrongly resolve an in-doubt prepare whose txn
	// id collides with it.
	dev := disk.NewMem(CoordBytes(8))
	c, err := formatCoord(dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	for txn := uint64(5); txn <= 7; txn++ {
		if err := c.commit(txn); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := formatCoord(dev, 2); err != nil {
		t.Fatal(err)
	}
	fresh, err := openCoord(dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := fresh.used(); got != 0 {
		t.Fatalf("re-formatted log scans %d records, want 0", got)
	}
	// Fill slot 0 of the new log; slots 1 and 2 once held txns 6 and 7.
	if err := fresh.commit(1); err != nil {
		t.Fatal(err)
	}
	reopened, err := openCoord(dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := reopened.used(); got != 1 {
		t.Errorf("log scans %d records, want 1", got)
	}
	if !reopened.has(1) {
		t.Errorf("fresh record for txn 1 missing")
	}
	for txn := uint64(5); txn <= 7; txn++ {
		if reopened.has(txn) {
			t.Errorf("stale record for txn %d survived the re-format", txn)
		}
	}
}

func TestOpenValidatesShardPlacement(t *testing.T) {
	// Routing is pure id arithmetic over the device count and order:
	// mounting a shard set with a different count or reordered devices
	// must fail rather than silently misroute every id.
	o := Options{}
	r := newRig(t, 3, o)
	l0, l1 := twoShardLists(t, r.d)
	b, err := r.d.NewBlock(0, l0, core.NilBlock)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.d.Write(0, b, bytes.Repeat([]byte{7}, r.d.BlockSize())); err != nil {
		t.Fatal(err)
	}
	_ = l1
	if err := r.d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := r.d.Close(); err != nil {
		t.Fatal(err)
	}

	// Wrong device count: the coordinator header catches it.
	two := []disk.Disk{r.devs[0].Reopen(r.devs[0].Image()), r.devs[1].Reopen(r.devs[1].Image())}
	if _, err := Open(two, r.coord.Reopen(r.coord.Image()), o); !errors.Is(err, ErrShardMismatch) {
		t.Errorf("open with 2 of 3 devices: got %v, want ErrShardMismatch", err)
	}

	// Reordered devices: the per-device placement stamps catch it.
	swapped := []disk.Disk{r.devs[1].Reopen(r.devs[1].Image()), r.devs[0].Reopen(r.devs[0].Image()), r.devs[2].Reopen(r.devs[2].Image())}
	if _, err := Open(swapped, r.coord.Reopen(r.coord.Image()), o); !errors.Is(err, ErrShardMismatch) {
		t.Errorf("open with reordered devices: got %v, want ErrShardMismatch", err)
	}

	// An unstamped device (a bare single-engine image) is rejected too.
	lone := disk.NewMem(testLayout().DiskBytes())
	if _, err := core.Format(lone, core.Params{Layout: testLayout()}); err != nil {
		t.Fatal(err)
	}
	mixed := []disk.Disk{lone, r.devs[1].Reopen(r.devs[1].Image()), r.devs[2].Reopen(r.devs[2].Image())}
	if _, err := Open(mixed, r.coord.Reopen(r.coord.Image()), o); !errors.Is(err, ErrShardMismatch) {
		t.Errorf("open with an unstamped device: got %v, want ErrShardMismatch", err)
	}

	// The correct placement still mounts, state intact.
	var devs []disk.Disk
	for _, dev := range r.devs {
		devs = append(devs, dev.Reopen(dev.Image()))
	}
	d, err := Open(devs, r.coord.Reopen(r.coord.Image()), o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	buf := make([]byte, d.BlockSize())
	if err := d.Read(0, b, buf); err != nil || buf[0] != 7 {
		t.Errorf("Read after correct remount: err=%v buf[0]=%d", err, buf[0])
	}
}

func TestCheckpointCommitBarrier(t *testing.T) {
	// Checkpoint must be a barrier against concurrent 2PC commits: a
	// commit landing between one shard's checkpoint and the coordinator
	// reset would have its commit record erased while its prepare still
	// sat in that shard's post-checkpoint replay window, so a crash
	// would keep the unit on one shard and presume-abort it on another.
	// Hammer checkpoints against a committer, then crash and verify
	// every acknowledged unit survived whole.
	checkpointCommitBarrier(t, Options{})
}

// TestCheckpointCommitBarrierIncremental re-runs the commit-vs-
// checkpoint race with the incremental chain pinned to its two
// extremes: every checkpoint a delta (the publish barrier is the delta
// sync), and compaction on every other checkpoint (the publish barrier
// is the build-then-publish base flip to the other region). Either way
// a 2PC commit racing the checkpoint must not strand an in-doubt
// prepare behind a watermark whose coordinator record was reset.
func TestCheckpointCommitBarrierIncremental(t *testing.T) {
	t.Run("delta-chain", func(t *testing.T) {
		var o Options
		o.Params.CkptCompactEvery = 1 << 20 // never compact: pure delta appends
		checkpointCommitBarrier(t, o)
	})
	t.Run("compact-every-other", func(t *testing.T) {
		var o Options
		o.Params.CkptCompactEvery = 1 // delta, base, delta, base, ...
		checkpointCommitBarrier(t, o)
	})
}

func checkpointCommitBarrier(t *testing.T, o Options) {
	r := newRig(t, 2, o)
	d := r.d
	l0, l1 := twoShardLists(t, d)
	type acked struct {
		b0, b1  BlockID
		payload byte
	}
	var oks []acked
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := 0; n < 64; n++ {
			payload := byte(n + 1)
			a, err := d.BeginARU()
			if err != nil {
				t.Error(err)
				return
			}
			b0, err := d.NewBlock(a, l0, core.NilBlock)
			if err != nil {
				t.Error(err)
				return
			}
			b1, err := d.NewBlock(a, l1, core.NilBlock)
			if err != nil {
				t.Error(err)
				return
			}
			buf := bytes.Repeat([]byte{payload}, d.BlockSize())
			if err := d.Write(a, b0, buf); err != nil {
				t.Error(err)
				return
			}
			if err := d.Write(a, b1, buf); err != nil {
				t.Error(err)
				return
			}
			if err := d.EndARU(a); err != nil {
				// The 64-slot coordinator filled between successful
				// checkpoints; the unit aborted cleanly.
				if !errors.Is(err, ErrCoordFull) {
					t.Error(err)
					return
				}
				continue
			}
			oks = append(oks, acked{b0, b1, payload})
		}
	}()
	for {
		select {
		case <-done:
		default:
			// The gate keeps the committer's prepares out; an attempt
			// that finds its unit open, not yet prepared, checkpoints
			// inside it: the harder race. Keep trying.
			_ = d.Checkpoint()
			continue
		}
		break
	}
	if t.Failed() {
		t.FailNow()
	}
	if len(oks) == 0 {
		t.Fatal("no unit committed")
	}
	r.recycle(t, o)
	defer r.d.Close()
	buf := make([]byte, r.d.BlockSize())
	for _, u := range oks {
		for _, b := range []BlockID{u.b0, u.b1} {
			if err := r.d.Read(0, b, buf); err != nil {
				t.Fatalf("acked unit (payload %d): block %d lost after crash: %v", u.payload, b, err)
			}
			if buf[0] != u.payload {
				t.Fatalf("acked unit (payload %d): block %d holds %d after crash", u.payload, b, buf[0])
			}
		}
	}
}

// TestShardSnapshotCut pins a multi-shard snapshot under concurrent
// cross-shard commits and requires every observed cut to be
// all-or-nothing: a 2PC unit writing the same value to one block per
// shard must never be seen applied on one shard and not another. The
// pinned cut must also stay byte-stable while commits continue.
func TestShardSnapshotCut(t *testing.T) {
	r := newRig(t, 3, Options{})
	d := r.d
	bs := d.BlockSize()

	// One list and one block per shard, seeded with generation 0.
	blocks := make([]BlockID, d.Shards())
	pay := func(gen int) []byte {
		p := make([]byte, bs)
		for i := range p {
			p[i] = byte(gen*31 + i)
		}
		return p
	}
	for i := range blocks {
		var lst ListID
		for {
			l, err := d.NewList(core.ARUID(0))
			if err != nil {
				t.Fatal(err)
			}
			if d.ShardOfList(l) == i {
				lst = l
				break
			}
		}
		b, err := d.NewBlock(core.ARUID(0), lst, core.NilBlock)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(core.ARUID(0), b, pay(0)); err != nil {
			t.Fatal(err)
		}
		blocks[i] = b
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}

	const (
		pinGen = 5
		gens   = 25
	)
	commit := func(g int) error {
		a, err := d.BeginARU()
		if err != nil {
			return err
		}
		for _, b := range blocks {
			if err := d.Write(a, b, pay(g)); err != nil {
				return err
			}
		}
		return d.EndARU(a)
	}
	buf := make([]byte, bs)
	genOf := func(p []byte) int {
		for g := 0; g <= gens; g++ {
			if bytes.Equal(p, pay(g)) {
				return g
			}
		}
		return -1
	}
	readCut := func(h *Snapshot) []int {
		cut := make([]int, len(blocks))
		for j, b := range blocks {
			if err := h.Read(core.ARUID(0), b, buf); err != nil {
				t.Fatalf("cut read: %v", err)
			}
			cut[j] = genOf(buf)
		}
		return cut
	}

	// Deterministic pin: commit pinGen generations, then pin the cut.
	for g := 1; g <= pinGen; g++ {
		if err := commit(g); err != nil {
			t.Fatal(err)
		}
	}
	pinned, err := d.AcquireSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer pinned.Release()
	if pinned.skewed {
		t.Fatal("quiescent acquisition reported a skewed cut")
	}
	if n := len(pinned.snaps); n != d.Shards() {
		t.Fatalf("cut has %d epochs, want %d", n, d.Shards())
	}

	// Race: keep committing while cuts are taken; every consistent cut
	// must be all-or-nothing across shards.
	done := make(chan error, 1)
	go func() {
		for g := pinGen + 1; g <= gens; g++ {
			if err := commit(g); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; ; i++ {
		h, err := d.AcquireSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		cut := readCut(h)
		consistent := !h.skewed
		h.Release()
		if consistent {
			for j := 1; j < len(cut); j++ {
				if cut[j] != cut[0] {
					t.Fatalf("consistent cut %d straddles a cross-shard unit: generations %v", i, cut)
				}
			}
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			// The pinned cut must still serve its generation untouched.
			if cut := readCut(pinned); cut[0] != pinGen || cut[len(cut)-1] != pinGen {
				t.Fatalf("pinned cut drifted from generation %d: %v", pinGen, cut)
			}
			// The live disk has moved on to the final generation.
			if err := d.Read(core.ARUID(0), blocks[0], buf); err != nil {
				t.Fatal(err)
			}
			if g := genOf(buf); g != gens {
				t.Fatalf("live read sees generation %d, want %d", g, gens)
			}
			return
		default:
		}
	}
}
