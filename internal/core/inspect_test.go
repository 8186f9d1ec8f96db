package core

// Inspection helpers the engine's tests read its tables through.

// ActiveARUs returns the number of currently open ARUs.
func (d *LLD) ActiveARUs() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.arus)
}

// VersionCount returns the number of live versions of block b across
// all states (persistent + committed + one per ARU shadow), for
// the n+2 bound invariant tests.
func (d *LLD) VersionCount(b BlockID) int {
	d.mu.Lock()
	defer d.mu.Unlock()
	if lf := pmapGet(d.blockTab.root, uint64(b)); lf != nil {
		return lf.versions()
	}
	return 0
}

// SegmentInfo describes one log segment's runtime accounting.
type SegmentInfo struct {
	Index    int
	Seq      uint64 // log sequence number (0 = never written)
	Live     int32  // live persistent blocks
	Pins     int32  // alternative records holding data here
	Current  bool   // the open segment being filled
	Reusable bool
}

// Segments returns the runtime accounting of every log segment — the
// utilization view the cleaner decides on.
func (d *LLD) Segments() []SegmentInfo {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]SegmentInfo, d.params.Layout.NumSegs)
	for s := range out {
		out[s] = SegmentInfo{
			Index:    s,
			Seq:      d.segSeq[s],
			Live:     d.segLive[s],
			Pins:     d.segPins[s],
			Current:  s == d.curSeg,
			Reusable: d.segReusable(s),
		}
	}
	return out
}
