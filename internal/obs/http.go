package obs

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is one named series for exposition: a monotone counter, or
// a gauge — a current level that may go down.
type Counter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Gauge bool   `json:"gauge,omitempty"`
}

// FlattenCounters turns a flat struct of int64 fields (such as
// core.Stats) into named counters: each exported int64 field becomes
// snake_case(field name), a gauge when tagged `metric:"gauge"`.
// Non-int64 fields are skipped.
func FlattenCounters(v any) []Counter {
	rv := reflect.ValueOf(v)
	if rv.Kind() == reflect.Pointer {
		rv = rv.Elem()
	}
	if rv.Kind() != reflect.Struct {
		return nil
	}
	rt := rv.Type()
	out := make([]Counter, 0, rt.NumField())
	for i := 0; i < rt.NumField(); i++ {
		f := rt.Field(i)
		if !f.IsExported() || f.Type.Kind() != reflect.Int64 {
			continue
		}
		out = append(out, Counter{Name: snakeCase(f.Name), Value: rv.Field(i).Int(),
			Gauge: f.Tag.Get("metric") == "gauge"})
	}
	return out
}

// snakeCase converts CamelCase to snake_case, breaking only at a
// lower-or-digit→upper boundary so acronym runs stay whole:
// "CacheHits" → "cache_hits", "ARUsBegun" → "arus_begun".
func snakeCase(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 4)
	for i, r := range s {
		if r >= 'A' && r <= 'Z' {
			if i > 0 {
				prev := s[i-1]
				if prev >= 'a' && prev <= 'z' || prev >= '0' && prev <= '9' {
					b.WriteByte('_')
				}
			}
			r += 'a' - 'A'
		}
		b.WriteRune(r)
	}
	return b.String()
}

// HandlerOptions configures the /metrics endpoint.
type HandlerOptions struct {
	// Counters is polled at each scrape for the current counter
	// values (e.g. func() []Counter { return
	// obs.FlattenCounters(d.Stats()) }). Optional.
	Counters func() []Counter
	// Tracer supplies the latency histograms. Optional.
	Tracer *Tracer
	// Extra supplies additional histogram snapshots rendered after
	// the Tracer's — e.g. the network server's per-RPC latencies
	// (ldnet.Metrics.Histograms). Optional.
	Extra func() []HistSnapshot
}

// Handler returns an http.Handler rendering the counters and
// histograms in the Prometheus text exposition format: every counter
// as aru_<name>_total, every gauge as aru_<name>, every latency
// histogram as the aru_<name>_seconds bucket/sum/count triple and the
// commit_batch size histogram unscaled as aru_commit_batch.
func Handler(o HandlerOptions) http.Handler {
	// The tracer snapshots are taken into a scratch owned by the
	// handler (serialized by mu), so repeated scrapes reuse the bucket
	// backing instead of allocating per bucket — scraping mid-soak must
	// not perturb the engine's allocation profile.
	var mu sync.Mutex
	var scratch []HistSnapshot
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if o.Counters != nil {
			for _, c := range o.Counters() {
				if c.Gauge {
					fmt.Fprintf(w, "# TYPE aru_%s gauge\naru_%s %d\n", c.Name, c.Name, c.Value)
				} else {
					fmt.Fprintf(w, "# TYPE aru_%s_total counter\naru_%s_total %d\n", c.Name, c.Name, c.Value)
				}
			}
		}
		if o.Tracer != nil {
			// Trace loss: ring-ticket overrun means the timeline on
			// /debug/trace is incomplete, which must be visible to the
			// scraper, not silent.
			fmt.Fprintf(w, "# TYPE aru_trace_dropped_total counter\naru_trace_dropped_total %d\n",
				o.Tracer.SpansDropped())
		}
		mu.Lock()
		scratch = o.Tracer.HistogramsInto(scratch)
		for _, h := range scratch {
			writePromHistogram(w, h)
		}
		mu.Unlock()
		if o.Extra != nil {
			for _, h := range o.Extra() {
				writePromHistogram(w, h)
			}
		}
	})
}

// writePromHistogram renders one histogram in Prometheus text format.
// Buckets become cumulative with `le` bounds in seconds — except for
// the commit_batch sizes, which are counts and keep their unit.
func writePromHistogram(w http.ResponseWriter, h HistSnapshot) {
	name, scale := "aru_"+h.Name+"_seconds", 1e9
	if h.Name == histName[HistCommitBatch] {
		name, scale = "aru_"+h.Name, 1
	}
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum uint64
	for _, b := range h.Buckets {
		cum += b.Count
		fmt.Fprintf(w, "%s_bucket{le=\"%g\"} %d\n", name, float64(b.UpperNs)/scale, cum)
	}
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.SumNs)/scale)
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count)
}

// expvar publication: one process-wide "aru" variable whose value
// tracks the most recent ServeMetrics/NewMux options. Publish panics
// on duplicate names, so registration happens once and the options
// are swapped through an atomic pointer.
var (
	expvarOnce sync.Once
	expvarOpts atomic.Pointer[HandlerOptions]
)

func publishExpvar(o HandlerOptions) {
	expvarOpts.Store(&o)
	expvarOnce.Do(func() {
		expvar.Publish("aru", expvar.Func(func() any {
			o := expvarOpts.Load()
			if o == nil {
				return nil
			}
			v := struct {
				Counters   []Counter      `json:"counters,omitempty"`
				Histograms []HistSnapshot `json:"histograms,omitempty"`
			}{}
			if o.Counters != nil {
				v.Counters = o.Counters()
				sort.Slice(v.Counters, func(i, j int) bool { return v.Counters[i].Name < v.Counters[j].Name })
			}
			v.Histograms = o.Tracer.Histograms()
			if o.Extra != nil {
				v.Histograms = append(v.Histograms, o.Extra()...)
			}
			return v
		}))
	})
}

// NewMux builds the full observability mux: /metrics (Prometheus
// text), /debug/vars (expvar, including an "aru" variable mirroring
// the metrics), and the /debug/pprof suite.
func NewMux(o HandlerOptions) *http.ServeMux {
	publishExpvar(o)
	mux := http.NewServeMux()
	mux.Handle("/metrics", Handler(o))
	mux.Handle("/debug/trace", TraceHandler(o.Tracer))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ServeMetrics listens on addr (e.g. ":6060") and serves the
// observability mux in a background goroutine. It returns the bound
// address (useful with ":0") and a shutdown-capable server.
func ServeMetrics(addr string, o HandlerOptions) (*http.Server, net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: NewMux(o)}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr(), nil
}
