package main

import (
	"errors"
	"fmt"
	"time"

	"aru"
	"aru/internal/seg"
)

// recovery: mount time after a crash, and the durability contract.
// Set-up builds one crash image: 128 segments, 4 096 live blocks, a
// Checkpoint, then units with a Flush every 24; the last 100 units are
// never flushed. The device then crashes with a torn-write history, so
// writes issued since the last Sync are really lost or torn — the
// process is not killed and nothing survives in an OS cache. An op is
// one OpenReport on a fresh copy of the image, with default Params.
// After every mount each block must read back either its acknowledged
// version or the version of a wholly visible later unit.
const (
	recSegs       = 128
	recUnits      = 2000
	recUnsynced   = 100
	recFlushEvery = 24
	recTornWrites = 64
)

// touch says that an unsynced unit left a block at version ver; version
// 0 means the unit deleted the block.
type touch struct {
	unit int // index among the unsynced units, in commit order
	ver  uint32
}

type crashImage struct {
	img      []byte
	acked    map[aru.BlockID]uint32 // every block's version at the last completed Flush
	unsynced int                    // how many units were committed after it
	// history[id] lists, in order, the unsynced units that touch id.
	history             map[aru.BlockID][]touch
	devBytesPerUserByte float64
	logWrittenX         float64
	hash                uint64
}

// buildCrashImage runs the build workload and crashes the device.
func buildCrashImage(e *env) (*crashImage, error) {
	l := aru.DefaultLayout(recSegs)
	sim := aru.NewMemDevice(l.DiskBytes())
	sim.SetFaultPlan(aru.FaultPlan{TornHistory: recTornWrites, TornSeed: e.cfg.seed})
	d, err := aru.Format(sim, e.params(l))
	if err != nil {
		return nil, fmt.Errorf("format: %w", err)
	}
	buf := make([]byte, blockSize)
	set, err := populate(d, 64, 64, buf)
	if err != nil {
		return nil, err
	}
	if err := d.Checkpoint(); err != nil {
		return nil, fmt.Errorf("Checkpoint: %w", err)
	}
	g := newUnitGen(set, allLists(64), e.cfg.seed*16, blockSize)
	var userBytes int64
	synced := recUnits - recUnsynced
	for u := 1; u <= synced; u++ {
		n, err := g.unit(d, endARU)
		if err != nil {
			return nil, fmt.Errorf("build unit %d: %w", u, err)
		}
		userBytes += int64(n)
		if u%recFlushEvery == 0 || u == synced {
			if err := d.Flush(); err != nil {
				return nil, fmt.Errorf("build Flush: %w", err)
			}
		}
	}
	ci := &crashImage{acked: make(map[aru.BlockID]uint32), unsynced: recUnsynced, history: make(map[aru.BlockID][]touch)}
	for _, sl := range set.slots {
		ci.acked[sl.id] = sl.ver
	}
	prev := make([]slot, len(set.slots))
	for u := 0; u < recUnsynced; u++ {
		copy(prev, set.slots)
		n, err := g.unit(d, endARU)
		if err != nil {
			return nil, fmt.Errorf("build unit %d: %w", synced+u+1, err)
		}
		userBytes += int64(n)
		// The unit's effect is the difference it made to the model.
		for si, now := range set.slots {
			if was := prev[si]; was.id != now.id {
				// The list operation replaced the head block by a new tail block.
				ci.history[was.id] = append(ci.history[was.id], touch{u, 0})
				ci.history[now.id] = append(ci.history[now.id], touch{u, now.ver})
			} else if was.ver != now.ver {
				ci.history[now.id] = append(ci.history[now.id], touch{u, now.ver})
			}
		}
	}
	st := sim.Stats()
	ci.devBytesPerUserByte = float64(st.BytesWritten) / float64(userBytes)
	ci.logWrittenX = float64(st.BytesWritten) / float64(sim.Size())
	ci.hash = g.hash
	sim.Crash()
	ci.img = sim.Image()
	return ci, nil
}

// check reads every block the build ever acknowledged or touched from
// the mounted disk d and verifies the contract: acknowledged versions
// survive, and each unsynced unit is visible wholly or not at all.
func (ci *crashImage) check(d *aru.Disk, buf []byte) error {
	observe := func(id aru.BlockID) (uint32, error) {
		err := d.Read(aru.Simple, id, buf)
		if errors.Is(err, aru.ErrNoSuchBlock) {
			return 0, nil
		}
		if err != nil {
			return 0, violation("block %d after recovery: %v", id, err)
		}
		gotID, ver, ok := readStamp(buf)
		if !ok || gotID != uint64(id) {
			return 0, violation("block %d after recovery: malformed payload or wrong block", id)
		}
		return ver, nil
	}
	// visible[u]: +1 some block shows unit u's version, -1 some block
	// shows an older one although u wrote it.
	visible := make([]int8, ci.unsynced)
	mark := func(u int, v int8, id aru.BlockID) error {
		if visible[u] == -v {
			return violation("unsynced unit %d is partially visible (block %d)", u, id)
		}
		visible[u] = v
		return nil
	}
	for id, acked := range ci.acked {
		got, err := observe(id)
		if err != nil {
			return err
		}
		hist := ci.history[id]
		if len(hist) == 0 {
			if got != acked {
				return violation("block %d: version %d after recovery, acknowledged %d", id, got, acked)
			}
			continue
		}
		if err := ci.place(id, acked, got, hist, mark); err != nil {
			return err
		}
	}
	for id, hist := range ci.history {
		if _, ok := ci.acked[id]; ok {
			continue
		}
		got, err := observe(id) // a block first allocated by an unsynced unit
		if err != nil {
			return err
		}
		if err := ci.place(id, 0, got, hist, mark); err != nil {
			return err
		}
	}
	return nil
}

// place finds where the observed version got sits in block id's history
// and records what that says about each unit that touched it.
func (ci *crashImage) place(id aru.BlockID, acked, got uint32, hist []touch, mark func(u int, v int8, id aru.BlockID) error) error {
	at := -1 // index into hist of the unit whose version is observed; -1 = the acknowledged one
	if got != acked {
		for k, h := range hist {
			if h.ver == got {
				at = k
			}
		}
		if at < 0 {
			return violation("block %d: version %d after recovery, acknowledged %d, never written", id, got, acked)
		}
	}
	for k, h := range hist {
		switch {
		case k == at:
			if err := mark(h.unit, +1, id); err != nil {
				return err
			}
		case k > at:
			if err := mark(h.unit, -1, id); err != nil {
				return err
			}
		}
	}
	return nil
}

func setupRecovery(e *env) (*instance, error) {
	ci, err := buildCrashImage(e)
	if err != nil {
		return nil, err
	}
	var (
		cur     *aru.SimDevice
		dev     aru.Device
		td      *tracedDev
		mounted *aru.Disk
		reports []aru.RecoveryReport
		buf     = make([]byte, blockSize)
	)
	base := aru.NewMemDevice(0)
	e.held = int64(len(ci.img))
	inst := &instance{
		devBytesPerUserByte: ci.devBytesPerUserByte,
		logWrittenX:         ci.logWrittenX,
		hash:                func() uint64 { return ci.hash },
		stats: func() aru.Stats {
			if mounted != nil {
				return mounted.Stats()
			}
			return aru.Stats{}
		},
		// The image copy happens before the clock starts.
		prep: func(i int) error {
			if mounted != nil {
				_ = mounted.Close()
				mounted = nil
			}
			cur = base.Reopen(ci.img)
			e.sims = []*aru.SimDevice{cur}
			switch {
			case e.tr == nil:
				dev = cur
			case td == nil:
				dev, td = traceDev(cur, e.tr, 100)
				e.tdevs = []*tracedDev{td}
			default:
				td.inner = cur
			}
			return nil
		},
		post: func(i int) error {
			if err := ci.check(mounted, buf); err != nil {
				return err
			}
			if err := mounted.VerifyInternal(); err != nil {
				return violation("VerifyInternal after recovery: %v", err)
			}
			return nil
		},
		verify: func() error { return nil }, // every mount was checked in post
		close: func() {
			if mounted != nil {
				_ = mounted.Close()
			}
		},
	}
	inst.clients = []opFunc{func(i int) (int, error) {
		s := e.ctx(0).enter(kOpen)
		d, rpt, err := aru.OpenReport(dev, aru.Params{Tracer: e.etr})
		e.ctx(0).exit(s)
		if err != nil {
			return 0, violation("mounting the crash image: %v", err)
		}
		mounted = d
		reports = append(reports, rpt)
		return 0, nil
	}}
	inst.mark = func() { reports = reports[:0] }
	inst.layers = func(in layerInput, out metricSet) {
		lat, _, _, _, _, _ := in.m.totals()
		out.set("core.open_us_p50", lat.quantile(0.5)/1e3)
		out.set("core.open_us_p90", lat.quantile(0.9)/1e3)
		var segs, entries, depth, pages float64
		for _, r := range reports {
			segs += float64(r.SegmentsReplayed)
			entries += float64(r.EntriesReplayed)
			depth += float64(r.DeltaChainDepth)
			pages += float64(r.DeltaPagesReplayed)
		}
		n := float64(len(reports))
		if n == 0 {
			return
		}
		out.set("core.recover_segments_replayed", segs/n)
		out.set("core.recover_entries_replayed", entries/n)
		out.set("core.recover_chain_depth", depth/n)
		out.set("core.recover_delta_pages", pages/n)
		out.setIf("core.recover_us_per_entry", lat.meanNs()/1e3/(entries/n), entries > 0)
		decode, seal := segCodecTimes(ci.img)
		out.setIf("seg.decode_us_per_segment", decode, decode > 0)
		out.set("seg.seal_us_per_segment", seal)
	}
	return inst, nil
}

// segCodecTimes times the segment codec on its own: decoding the
// trailer and summary of every valid segment of img, and building and
// sealing a full segment 200 times. Both in µs per segment.
func segCodecTimes(img []byte) (decodeUs, sealUs float64) {
	l := aru.DefaultLayout(recSegs)
	var valid []int
	for s := 0; s < l.NumSegs; s++ {
		segBytes := img[l.SegOff(s) : l.SegOff(s)+int64(l.SegBytes)]
		if t, err := seg.DecodeTrailer(segBytes); err == nil && t.Seq > 0 {
			valid = append(valid, s)
		}
	}
	if len(valid) > 0 {
		t0 := time.Now()
		for _, s := range valid {
			segBytes := img[l.SegOff(s) : l.SegOff(s)+int64(l.SegBytes)]
			if t, err := seg.DecodeTrailer(segBytes); err == nil {
				_, _ = seg.DecodeEntriesFromSegment(segBytes, t) // a torn segment may fail here; it still costs the time
			}
		}
		decodeUs = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(len(valid))
	}
	const rounds = 200
	b := seg.NewBuilder(l)
	block := make([]byte, blockSize)
	var total time.Duration
	for r := 0; r < rounds; r++ {
		b.Reset()
		t0 := time.Now()
		for k := 1; b.Fits(1, 1); k++ {
			slot := b.AddBlock(block)
			b.AddEntry(seg.Entry{Kind: seg.KindWrite, TS: uint64(k), Block: seg.BlockID(k), Slot: slot})
		}
		b.Seal(uint64(r + 1))
		total += time.Since(t0)
	}
	return decodeUs, float64(total.Nanoseconds()) / 1e3 / rounds
}
