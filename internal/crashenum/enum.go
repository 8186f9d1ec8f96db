package crashenum

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"regexp"
	"slices"
	"strconv"
	"strings"

	"aru/internal/disk"
)

// CrashState identifies one crash image of one journaled device.
// Epochs strictly before Epoch are fully applied (their sync barrier
// completed); within the crash epoch, the first Keep writes are
// applied in order except those listed in Drop (lost to reordering),
// and the write at index TearOp — if any — reaches the medium only up
// to TearSectors whole sectors.
type CrashState struct {
	Epoch       int
	Keep        int
	Drop        []int // journal-order indices within the epoch, each < Keep
	TearOp      int   // index within the epoch, < Keep; -1 = no torn write
	TearSectors int   // sectors of TearOp that land (< the write's total)
}

// String renders the state in the compact replayable form used by
// failure artifacts: "E<epoch>K<keep>[D<i,j,...>][T<op>:<sectors>]".
func (cs CrashState) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "E%dK%d", cs.Epoch, cs.Keep)
	if len(cs.Drop) > 0 {
		b.WriteString("D")
		for i, d := range cs.Drop {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, "%d", d)
		}
	}
	if cs.TearOp >= 0 {
		fmt.Fprintf(&b, "T%d:%d", cs.TearOp, cs.TearSectors)
	}
	return b.String()
}

var stateRE = regexp.MustCompile(`^E(\d+)K(\d+)(?:D(\d+(?:,\d+)*))?(?:T(\d+):(\d+))?$`)

// ParseState parses the String form back into a CrashState.
func ParseState(s string) (CrashState, error) {
	m := stateRE.FindStringSubmatch(s)
	var err error
	num := func(field string) int {
		n, aerr := strconv.Atoi(field)
		if aerr != nil {
			err = aerr // out of range; the pattern admits digits only
		}
		return n
	}
	if m == nil {
		return CrashState{}, fmt.Errorf("crashenum: bad state descriptor %q", s)
	}
	cs := CrashState{Epoch: num(m[1]), Keep: num(m[2]), TearOp: -1}
	if m[3] != "" {
		for _, d := range strings.Split(m[3], ",") {
			cs.Drop = append(cs.Drop, num(d))
		}
	}
	if m[4] != "" {
		cs.TearOp, cs.TearSectors = num(m[4]), num(m[5])
	}
	if err != nil {
		return CrashState{}, fmt.Errorf("crashenum: bad state descriptor %q: %w", s, err)
	}
	return cs, nil
}

// State is one crash state of an execution over N devices: one
// CrashState per device and, for N > 1, the global instant G that
// induced them. A sharded disk does I/O to several devices (the shard
// logs plus the coordinator log) and a single power failure hits them
// all at one instant: the shared Clock gives every write and sync one
// global tick, and a crash at G leaves each device in exactly the
// single-device model — epochs whose sync ticked at or before G are
// sealed, and the ops of the first unsealed epoch that ticked before G
// are the in-flight window, individually keepable, reorderable within
// the window, or torn.
//
// The cross-device causality this preserves is the one the 2PC
// protocol relies on: if the coordinator's commit-record sync ticked
// at G, every participant flush that completed before it is sealed at
// G on its own device. A model that enumerated per-device states
// independently would fabricate unreachable combinations (coordinator
// record durable, an earlier participant flush lost) and flag the
// correct protocol; anchoring everything to one G makes exactly the
// reachable cross-device states — and makes the deliberately broken
// schedule (commit record synced before the participant flushes)
// produce states where the decision is durable and a prepare is not.
type State struct {
	G   uint64
	Dev []CrashState
}

// oneDevice is the State of a single-device execution.
func oneDevice(cs CrashState) State { return State{Dev: []CrashState{cs}} }

// String renders the replayable descriptor: the device's own for one
// device, "G<g>/<dev0>/<dev1>/..." for several.
func (st State) String() string {
	if len(st.Dev) == 1 {
		return st.Dev[0].String()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "G%d", st.G)
	for _, cs := range st.Dev {
		b.WriteString("/")
		b.WriteString(cs.String())
	}
	return b.String()
}

// ParseDescriptor parses the String form back.
func ParseDescriptor(s string) (State, error) {
	if !strings.HasPrefix(s, "G") {
		cs, err := ParseState(s)
		return oneDevice(cs), err
	}
	parts := strings.Split(s, "/")
	g, err := strconv.ParseUint(parts[0][1:], 10, 64)
	if err != nil || len(parts) < 2 {
		return State{}, fmt.Errorf("crashenum: bad multi-device state descriptor %q", s)
	}
	st := State{G: g}
	for _, p := range parts[1:] {
		cs, err := ParseState(p)
		if err != nil {
			return State{}, err
		}
		st.Dev = append(st.Dev, cs)
	}
	return st, nil
}

// at is the position the oracle judges durability at, in the unit the
// workload recorded its floors in: the crash epoch of a single device,
// the crash instant of several.
func (st State) at() uint64 {
	if len(st.Dev) == 1 {
		return uint64(st.Dev[0].Epoch)
	}
	return st.G
}

// journals is the recorded I/O of one execution: one journal per
// device, all on one clock.
type journals struct {
	ops   [][]WriteOp
	syncs [][]uint64 // global tick of each completed Sync, per device
	sizes []int64
}

func journalsOf(recs []*Recorder) journals {
	var j journals
	for _, r := range recs {
		j.ops = append(j.ops, r.Journal())
		j.syncs = append(j.syncs, r.SyncGSeqs())
		j.sizes = append(j.sizes, r.Size())
	}
	return j
}

// splitEpochs groups a journal into per-epoch op lists, indexed by
// epoch number (epochs with no writes get empty slices).
func splitEpochs(journal []WriteOp) [][]WriteOp {
	maxE := 0
	for _, op := range journal {
		if op.Epoch > maxE {
			maxE = op.Epoch
		}
	}
	out := make([][]WriteOp, maxE+1)
	for _, op := range journal {
		out[op.Epoch] = append(out[op.Epoch], op)
	}
	return out
}

// applyOps applies whole writes onto img, in order.
func applyOps(img []byte, ops []WriteOp) {
	for _, op := range ops {
		copy(img[op.Off:], op.Data)
	}
}

// applyState applies the crash-epoch portion of cs onto img (which
// must already hold every earlier epoch).
func applyState(img []byte, epochOps []WriteOp, cs CrashState) {
	dropped := make(map[int]bool, len(cs.Drop))
	for _, d := range cs.Drop {
		dropped[d] = true
	}
	for i := 0; i < cs.Keep && i < len(epochOps); i++ {
		if dropped[i] {
			continue
		}
		data := epochOps[i].Data
		if i == cs.TearOp {
			data = data[:cs.TearSectors*disk.SectorSize]
		}
		copy(img[epochOps[i].Off:], data)
	}
}

// materialize builds every device's crash image for st from zeroed
// devices. It is the random-access companion of forEach, used for
// replay and shrinking.
func (j journals) materialize(st State) [][]byte {
	imgs := make([][]byte, len(j.ops))
	for i, cs := range st.Dev {
		img := make([]byte, j.sizes[i])
		epochs := splitEpochs(j.ops[i])
		for e := 0; e < cs.Epoch && e < len(epochs); e++ {
			applyOps(img, epochs[e])
		}
		if cs.Epoch < len(epochs) {
			applyState(img, epochs[cs.Epoch], cs)
		}
		imgs[i] = img
	}
	return imgs
}

// refine yields, in a fixed order and with a fixed sequence of draws
// from rng, the crash states of one device's in-flight window: ops are
// the writes of crash epoch e issued so far. It returns false as soon
// as yield does. The states are:
//
//   - every write prefix K = 0..len(ops);
//   - for each prefix, single-drop states losing one of the last
//     `window` writes before the prefix end to reordering;
//   - torn variants of the final in-flight write (a sector prefix of it
//     lands) and one of a write inside the reorder window;
//   - a few seeded multi-drop subsets.
func refine(e int, ops []WriteOp, window int, rng *rand.Rand, yield func(CrashState) bool) bool {
	for k := 0; k <= len(ops); k++ {
		if !yield(CrashState{Epoch: e, Keep: k, TearOp: -1}) {
			return false
		}
		lo := max(k-window, 0)
		// Reordering lost one write that an in-order model would
		// have applied before the crash point.
		for d := lo; d < k-1; d++ {
			if !yield(CrashState{Epoch: e, Keep: k, Drop: []int{d}, TearOp: -1}) {
				return false
			}
		}
		// Torn tails of the final in-flight write: every sector
		// prefix for small writes, seeded samples for large ones
		// (checkpoint regions span hundreds of sectors).
		if k > 0 {
			if secs := ops[k-1].Sectors(); secs > 1 {
				const maxTears = 8
				if secs-1 <= maxTears {
					for t := 1; t < secs; t++ {
						if !yield(CrashState{Epoch: e, Keep: k, TearOp: k - 1, TearSectors: t}) {
							return false
						}
					}
				} else {
					for i := 0; i < maxTears; i++ {
						t := 1 + rng.Intn(secs-1)
						if !yield(CrashState{Epoch: e, Keep: k, TearOp: k - 1, TearSectors: t}) {
							return false
						}
					}
				}
			}
		}
		// A torn write inside the reorder window: an earlier
		// in-flight write partially landed while later ones
		// completed.
		if k > 1 {
			d := lo + rng.Intn(k-1-lo)
			if secs := ops[d].Sectors(); secs > 1 {
				t := rng.Intn(secs - 1)
				if !yield(CrashState{Epoch: e, Keep: k, TearOp: d, TearSectors: t}) {
					return false
				}
			}
		}
	}
	// A few multi-drop subsets: reordering lost several writes at once.
	if n := len(ops); n > 2 {
		for i := 0; i < 4; i++ {
			k := 2 + rng.Intn(n-1)
			var drop []int
			for d := max(k-window, 0); d < k-1; d++ {
				if rng.Intn(2) == 1 {
					drop = append(drop, d)
				}
			}
			if len(drop) < 2 {
				continue
			}
			if !yield(CrashState{Epoch: e, Keep: k, Drop: drop, TearOp: -1}) {
				return false
			}
		}
	}
	return true
}

// forEach enumerates the crash states of the execution from position
// start on (an epoch for one device, a global tick for several) and
// calls fn with each state and its materialized images, one per
// device; fn must not retain them, and returns false to stop early
// (budget exhausted). Duplicate image sets (by content hash) are
// skipped: the caller sees each distinct crash image exactly once.
func (j journals) forEach(start uint64, window int, seed int64, fn func(st State, imgs [][]byte) bool) {
	if window <= 0 {
		window = 3
	}
	seen := make(map[string]bool)
	emit := func(st State, imgs [][]byte) bool {
		h := sha256.New()
		for _, img := range imgs {
			h.Write(img)
		}
		sum := string(h.Sum(nil))
		if seen[sum] {
			return true
		}
		seen[sum] = true
		return fn(st, imgs)
	}
	if len(j.ops) == 1 {
		j.forEachEpoch(int(start), window, seed, emit)
	} else {
		j.forEachInstant(start, window, seed, emit)
	}
}

// forEachEpoch walks one device epoch by epoch: every epoch from
// startEpoch on is refined in full over a rolling image of the epochs
// before it.
func (j journals) forEachEpoch(startEpoch, window int, seed int64, emit func(State, [][]byte) bool) {
	epochs := splitEpochs(j.ops[0])
	base := make([]byte, j.sizes[0])
	for e := 0; e < startEpoch && e < len(epochs); e++ {
		applyOps(base, epochs[e])
	}
	img := make([]byte, len(base))
	rng := rand.New(rand.NewSource(seed ^ 0x633d9acb))
	for e := startEpoch; e < len(epochs); e++ {
		ops := epochs[e]
		if !refine(e, ops, window, rng, func(cs CrashState) bool {
			copy(img, base)
			applyState(img, ops, cs)
			return emit(oneDevice(cs), [][]byte{img})
		}) {
			return
		}
		applyOps(base, ops)
	}
}

// devAt computes device state at global instant G: the crash epoch
// (first epoch whose sync has not ticked by G) and that epoch's ops
// issued by G — the in-flight window.
func devAt(journal []WriteOp, syncs []uint64, G uint64) (epoch int, inflight []WriteOp) {
	for _, sg := range syncs {
		if sg <= G {
			epoch++
		}
	}
	for _, op := range journal {
		if op.Epoch == epoch && op.GSeq <= G {
			inflight = append(inflight, op)
		}
	}
	return epoch, inflight
}

// forEachInstant walks several devices instant by instant. Crash
// instants are the global ticks around every device sync after startG
// (the sync itself, and the instant just before it, when the epoch's
// writes are in flight but the barrier has not completed) plus the end
// of the execution. At each instant the enumeration yields:
//
//   - every floor/full combination across devices (floor = the device
//     lost its whole in-flight window, full = all of it landed) — the
//     2^ndev cross-device extremes;
//   - for each focus device, its full refinement with the other
//     devices held at floor and at full.
func (j journals) forEachInstant(startG uint64, window int, seed int64, emit func(State, [][]byte) bool) {
	ndev := len(j.ops)
	var instants []uint64
	var maxG uint64
	for i := 0; i < ndev; i++ {
		for _, sg := range j.syncs[i] {
			if sg > startG {
				instants = append(instants, sg)
				if sg-1 > startG {
					instants = append(instants, sg-1)
				}
			}
			maxG = max(maxG, sg)
		}
		for _, op := range j.ops[i] {
			maxG = max(maxG, op.GSeq)
		}
	}
	if maxG > startG {
		instants = append(instants, maxG)
	}
	slices.Sort(instants)
	instants = slices.Compact(instants)

	rng := rand.New(rand.NewSource(seed ^ 0x7a31bd5c))
	try := func(G uint64, dev []CrashState) bool {
		st := State{G: G, Dev: dev}
		return emit(st, j.materialize(st))
	}
	for _, G := range instants {
		floor := make([]CrashState, ndev)
		full := make([]CrashState, ndev)
		inflight := make([][]WriteOp, ndev)
		for i := 0; i < ndev; i++ {
			var e int
			e, inflight[i] = devAt(j.ops[i], j.syncs[i], G)
			floor[i] = CrashState{Epoch: e, Keep: 0, TearOp: -1}
			full[i] = CrashState{Epoch: e, Keep: len(inflight[i]), TearOp: -1}
		}
		// Cross-device extremes: every floor/full subset.
		for mask := 0; mask < 1<<ndev; mask++ {
			dev := slices.Clone(floor)
			for i := 0; i < ndev; i++ {
				if mask&(1<<i) != 0 {
					dev[i] = full[i]
				}
			}
			if !try(G, dev) {
				return
			}
		}
		// Focus-device refinement against both extremes of the rest.
		for f := 0; f < ndev; f++ {
			if len(inflight[f]) == 0 {
				continue
			}
			for _, others := range [][]CrashState{floor, full} {
				if !refine(full[f].Epoch, inflight[f], window, rng, func(cs CrashState) bool {
					dev := slices.Clone(others)
					dev[f] = cs
					return try(G, dev)
				}) {
					return
				}
			}
		}
	}
}
