package crashenum

import "slices"

// Shrink greedily minimizes a failing crash state: it tries to remove
// the torn write, then each reorder-drop, then to cut the write prefix
// to the shortest one that still fails, repeating until no single
// simplification preserves the failure. fails must re-run the oracle
// on a candidate state (materializing its image from the same
// journal). The result reproduces a violation with the fewest moving
// parts — usually a plain prefix.
func Shrink(cs CrashState, fails func(CrashState) bool) CrashState {
	for {
		improved := false

		if cs.TearOp >= 0 {
			cand := cs
			cand.TearOp, cand.TearSectors = -1, 0
			if fails(cand) {
				cs = cand
				improved = true
			}
		}
		for i := 0; i < len(cs.Drop); i++ {
			cand := cs
			cand.Drop = append(append([]int(nil), cs.Drop[:i]...), cs.Drop[i+1:]...)
			if fails(cand) {
				cs = cand
				improved = true
				i--
			}
		}
		// Shortest failing prefix: candidates keep only drops and
		// tears that still fall inside the shorter prefix.
		for k := 0; k < cs.Keep; k++ {
			cand := CrashState{Epoch: cs.Epoch, Keep: k, TearOp: -1}
			for _, d := range cs.Drop {
				if d < k {
					cand.Drop = append(cand.Drop, d)
				}
			}
			if cs.TearOp >= 0 && cs.TearOp < k {
				cand.TearOp, cand.TearSectors = cs.TearOp, cs.TearSectors
			}
			if fails(cand) {
				cs = cand
				improved = true
				break
			}
		}

		if !improved {
			return cs
		}
	}
}

// shrinkState minimizes a failing state of an execution: each device's
// component is shrunk with Shrink while the others stay fixed,
// repeating until no device improves.
func shrinkState(st State, fails func(State) bool) State {
	st.Dev = slices.Clone(st.Dev) // the caller keeps the state as found
	for {
		improved := false
		for i := range st.Dev {
			shrunk := Shrink(st.Dev[i], func(cand CrashState) bool {
				trial := State{G: st.G, Dev: slices.Clone(st.Dev)}
				trial.Dev[i] = cand
				return fails(trial)
			})
			// Shrink only ever moves downward and only returns failing
			// states, so any change is an improvement.
			if shrunk.String() != st.Dev[i].String() {
				st.Dev[i] = shrunk
				improved = true
			}
		}
		if !improved {
			return st
		}
	}
}
