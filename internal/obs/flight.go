package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"
)

// FlightRecorder is the always-on postmortem sink: it owns nothing
// itself — the tracer's span ring IS the black box — but knows how to
// dump its contents, plus histogram snapshots and the drop counter, as
// one JSON artifact when something goes wrong. The
// three triggers (panic, slow-RPC threshold breach, SIGUSR1) all
// funnel through TryDump, which rate-limits so a storm of slow RPCs
// produces one artifact, not thousands.
type FlightRecorder struct {
	t *Tracer
	// Dir receives the dump files (aru-flight-<unixnano>.json). Empty
	// means the current directory.
	Dir string
	// MinGap is the minimum interval between TryDump artifacts
	// (default 30s). Dump ignores it.
	MinGap time.Duration

	lastDump atomic.Int64 // unixnano of the last successful TryDump
	dumps    atomic.Uint64
}

// NewFlightRecorder wraps a tracer. A nil tracer is allowed — every
// method degrades to a no-op — so callers wire the recorder
// unconditionally and let the tracer decide.
func NewFlightRecorder(t *Tracer) *FlightRecorder {
	return &FlightRecorder{t: t, MinGap: 30 * time.Second}
}

// FlightDump is the artifact schema.
type FlightDump struct {
	Reason       string         `json:"reason"`
	Time         time.Time      `json:"time"`
	UptimeNs     int64          `json:"uptime_ns"`
	SpansDropped uint64         `json:"spans_dropped"`
	Histograms   []HistSnapshot `json:"histograms,omitempty"`
	Spans        []Span         `json:"spans,omitempty"`
}

// snapshot assembles the artifact from the tracer's current state.
func (f *FlightRecorder) snapshot(reason string) FlightDump {
	return FlightDump{
		Reason:       reason,
		Time:         time.Now(),
		UptimeNs:     int64(f.t.Now()),
		SpansDropped: f.t.SpansDropped(),
		Histograms:   f.t.Histograms(),
		Spans:        f.t.Spans(),
	}
}

// WriteTo writes the artifact for reason to w (used by tests and by
// callers that own the destination).
func (f *FlightRecorder) WriteTo(w io.Writer, reason string) error {
	if f == nil || f.t == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f.snapshot(reason))
}

// Dump unconditionally writes one artifact file and returns its path.
func (f *FlightRecorder) Dump(reason string) (string, error) {
	if f == nil || f.t == nil {
		return "", nil
	}
	dir := f.Dir
	if dir == "" {
		dir = "."
	}
	path := filepath.Join(dir, fmt.Sprintf("aru-flight-%d.json", time.Now().UnixNano()))
	file, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("obs: flight dump: %w", err)
	}
	err = f.WriteTo(file, reason)
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("obs: flight dump: %w", err)
	}
	f.dumps.Add(1)
	return path, nil
}

// TryDump is Dump behind the rate limit: at most one artifact per
// MinGap, racing triggers collapse onto one winner. It returns the
// written path, or "" if suppressed.
func (f *FlightRecorder) TryDump(reason string) (string, error) {
	if f == nil || f.t == nil {
		return "", nil
	}
	gap := f.MinGap
	if gap <= 0 {
		gap = 30 * time.Second
	}
	now := time.Now().UnixNano()
	last := f.lastDump.Load()
	if last != 0 && now-last < int64(gap) {
		return "", nil
	}
	if !f.lastDump.CompareAndSwap(last, now) {
		return "", nil // another trigger won the slot
	}
	return f.Dump(reason)
}

// OnPanic is the deferred panic hook: if the goroutine is unwinding, it
// force-dumps (no rate limit — a crash artifact is always worth
// having) and re-panics. Usage: defer recorder.OnPanic().
func (f *FlightRecorder) OnPanic() {
	if r := recover(); r != nil {
		if f != nil && f.t != nil {
			if path, err := f.Dump(fmt.Sprintf("panic: %v", r)); err == nil && path != "" {
				fmt.Fprintf(os.Stderr, "flight recorder: dumped %s\n", path)
			}
		}
		panic(r)
	}
}
