package ldnet

import (
	"sync/atomic"
	"time"

	"aru/internal/obs"
)

// Metrics are the server's network-layer counters and per-RPC latency
// histograms. All fields are updated atomically by the connection
// goroutines; Counters and Histograms snapshot them in the shapes the
// observability layer exposes on /metrics (see obs.HandlerOptions).
type Metrics struct {
	sessionsTotal      atomic.Int64
	sessionsActive     atomic.Int64
	rpcs               atomic.Int64
	rpcErrors          atomic.Int64
	protoErrors        atomic.Int64
	abortsOnDisconnect atomic.Int64

	// rpcHist holds one latency histogram per opcode, measured from
	// frame decode to response encode (server-side service time, not
	// including the client's round trip).
	rpcHist [numOps]obs.Histogram
}

// observe records one served RPC. ok reports whether the dispatch
// returned statusOK (a bool so the error path needs no error value).
func (m *Metrics) observe(op uint8, d time.Duration, ok bool) {
	m.rpcs.Add(1)
	if !ok {
		m.rpcErrors.Add(1)
	}
	if int(op) < numOps {
		m.rpcHist[op].Observe(d)
	}
}

// SessionsTotal returns the number of connections ever accepted.
func (m *Metrics) SessionsTotal() int64 { return m.sessionsTotal.Load() }

// RPCs returns the number of requests served (including errors).
func (m *Metrics) RPCs() int64 { return m.rpcs.Load() }

// AbortsOnDisconnect returns the number of ARUs the server aborted
// because their owning connection went away mid-unit.
func (m *Metrics) AbortsOnDisconnect() int64 { return m.abortsOnDisconnect.Load() }

// Counters snapshots the network counters for metrics exposition;
// merge them with the disk's obs.FlattenCounters(Stats()) in
// obs.HandlerOptions.Counters.
func (m *Metrics) Counters() []obs.Counter {
	return []obs.Counter{
		{Name: "net_sessions", Value: m.sessionsTotal.Load()},
		{Name: "net_sessions_active", Value: m.sessionsActive.Load(), Gauge: true},
		{Name: "net_rpcs", Value: m.rpcs.Load()},
		{Name: "net_rpc_errors", Value: m.rpcErrors.Load()},
		{Name: "net_proto_errors", Value: m.protoErrors.Load()},
		{Name: "net_aru_aborts_on_disconnect", Value: m.abortsOnDisconnect.Load()},
	}
}

// Histograms snapshots the per-RPC latency histograms, named
// rpc_<opcode> (the Prometheus layer appends _seconds). Pass this as
// obs.HandlerOptions.Extra.
func (m *Metrics) Histograms() []obs.HistSnapshot {
	return m.HistogramsInto(nil)
}

// HistogramsInto is Histograms reusing the caller's slice and bucket
// backing, for allocation-free periodic scraping (obs.SnapshotInto).
func (m *Metrics) HistogramsInto(out []obs.HistSnapshot) []obs.HistSnapshot {
	if cap(out) < numOps-1 {
		out = make([]obs.HistSnapshot, numOps-1)
	} else {
		out = out[:numOps-1]
	}
	for op := 1; op < numOps; op++ {
		m.rpcHist[op].SnapshotInto("rpc_"+opNames[op], &out[op-1])
	}
	return out
}
