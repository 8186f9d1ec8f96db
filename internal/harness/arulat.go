package harness

import (
	"fmt"
	"time"
)

// ARULatencyResult holds the §5.3 latency experiment: N empty
// Begin/End pairs. The paper measured 78.47 µs per ARU and 24 segments
// written for 500,000 pairs.
type ARULatencyResult struct {
	Spec            VariantSpec
	N               int
	PerARU          time.Duration
	SegmentsWritten int64
	Phase           Phase
}

// RunARULatency runs N empty BeginARU/EndARU pairs on the given build
// and reports the amortized latency and segments written (every commit
// record lands in a segment summary).
func RunARULatency(spec VariantSpec, n int, o Options) (ARULatencyResult, error) {
	o = o.withDefaults()
	if o.Scale > 1 {
		n /= o.Scale
		if n < 1 {
			n = 1
		}
	}
	dev, ld, err := formatSim(spec, o)
	if err != nil {
		return ARULatencyResult{}, err
	}
	defer func() { _ = ld.Close() }()

	segsBefore := ld.Stats().SegmentsWritten
	m := newMeter(dev, ld, spec.Variant)
	m.reset()
	for i := 0; i < n; i++ {
		a, err := ld.BeginARU()
		if err != nil {
			return ARULatencyResult{}, fmt.Errorf("BeginARU %d: %w", i, err)
		}
		if err := ld.EndARU(a); err != nil {
			return ARULatencyResult{}, fmt.Errorf("EndARU %d: %w", i, err)
		}
	}
	if err := ld.Flush(); err != nil {
		return ARULatencyResult{}, err
	}
	p := m.phase("arulat", int64(n), 0)
	return ARULatencyResult{
		Spec:            spec,
		N:               n,
		PerARU:          p.Elapsed / time.Duration(n),
		SegmentsWritten: ld.Stats().SegmentsWritten - segsBefore,
		Phase:           p,
	}, nil
}
