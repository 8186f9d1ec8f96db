package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"syscall"
	"time"

	"aru"
)

// config is what one run of one workload is told.
type config struct {
	seed int64
	// scale multiplies every op count. Used when seconds is 0.
	scale float64
	// seconds, when positive, bounds the measured region by time instead
	// of by op count (the driver's mode); warm-up is a tenth of it.
	seconds float64
	// traced attaches the decorators, the span buffer and the engine's
	// own Tracer. End-to-end metrics come from untraced runs only.
	traced bool
	// setups is how many times the workload is set up; setup_s is the
	// median. The last set-up is the one that is measured.
	setups int
	// slices is how many slices the measured region is cut into, with a
	// reading of the reference kernel between them (0 = defaultSlices),
	// and refPasses how many passes make a reading (0 = defaultRefPasses).
	slices, refPasses int
	// traceOut, when set on a traced run, receives the spans as Chrome
	// trace-event JSON.
	traceOut string
}

// opFunc issues op number i of one closed-loop client and returns the
// payload bytes of its successful writes.
type opFunc func(i int) (userBytes int, err error)

// instance is a workload after set-up.
type instance struct {
	// clients holds one op function per closed-loop client; each runs on
	// its own goroutine and issues its next op when the previous returns.
	clients []opFunc
	// prep and post, when set, run before and after every op outside its
	// clock, and the workload is then charged op time only: throughput
	// is ops ÷ Σ op time and CPU and allocation are sampled around each
	// op (recovery: the image copy before a mount and the contract check
	// after it are the benchmark's work, not the engine's).
	prep, post func(i int) error
	// verify is the end-of-run correctness pass.
	verify func() error
	close  func()
	// stats returns the engine counters (summed over engines).
	stats func() aru.Stats
	// mark, when set, is called as the measured region starts, for
	// counters the workload keeps itself.
	mark func()
	// layers adds the workload's own per-layer metrics (traced runs).
	layers func(in layerInput, out metricSet)
	// hash returns the op-stream hash of the generators.
	hash func() uint64
	// devBytesPerUserByte overrides the write-amplification figure on a
	// workload whose measured ops write nothing (recovery reports its
	// image build).
	devBytesPerUserByte float64
	logWrittenX         float64
}

// env is what a workload's set-up uses to build devices and disks, so
// that the traced run can put its decorators around them.
type env struct {
	cfg  config
	def  *workloadDef
	tr   *tracer     // nil on an untraced run
	etr  *aru.Tracer // the engine's own histograms, traced runs only
	ctxs []*opCtx

	sims  []*aru.SimDevice
	tdevs []*tracedDev
	// held is memory the workload keeps that is disk content, not
	// program state (recovery's crash image).
	held int64
}

func newEnv(def *workloadDef, cfg config) *env {
	e := &env{cfg: cfg, def: def}
	if cfg.traced {
		e.tr = newTracer(def.ldLayer, def.clients == 1)
		e.etr = aru.NewTracer(aru.TracerConfig{RingSize: -1, SpanRingSize: -1})
		for c := 0; c < def.clients; c++ {
			e.ctxs = append(e.ctxs, &opCtx{tr: e.tr, client: uint8(c)})
		}
	}
	return e
}

// scaled returns n scaled by the run's scale, at least min.
func (e *env) scaled(n, min int) int {
	v := int(math.Round(float64(n) * e.cfg.scale))
	if v < min {
		v = min
	}
	return v
}

// memDevice returns a fresh in-memory device, decorated on a traced run.
func (e *env) memDevice(capacity int64, syncDelay time.Duration) aru.Device {
	sim := aru.NewMemDevice(capacity)
	sim.SetSyncDelay(syncDelay)
	e.sims = append(e.sims, sim)
	if e.tr == nil {
		return sim
	}
	dev, td := traceDev(sim, e.tr, uint8(100+len(e.tdevs)))
	e.tdevs = append(e.tdevs, td)
	return dev
}

// params returns engine parameters for layout l; the traced run also
// attaches the engine's shipped Tracer to read its histograms.
func (e *env) params(l aru.Layout) aru.Params {
	return aru.Params{Layout: l, Tracer: e.etr}
}

// ld returns the disk client c drives: d itself, or d behind call-site
// timers on a traced run.
func (e *env) ld(d ldOps, c int) ldOps {
	if e.tr == nil {
		return d
	}
	return &tracedLD{inner: d, ctx: e.ctxs[c]}
}

func (e *env) ctx(c int) *opCtx {
	if e.tr == nil {
		return nil
	}
	return e.ctxs[c]
}

// bytesWritten is what the devices themselves say was written to them;
// it needs no decorator, so untraced runs use it.
func (e *env) bytesWritten() (n int64) {
	for _, d := range e.sims {
		n += d.Stats().BytesWritten
	}
	return n
}

func (e *env) devCounts() (c devCounts) {
	for _, d := range e.tdevs {
		c = c.add(d.counts())
	}
	return c
}

func (e *env) deviceBytes() (n int64) {
	n = e.held
	for _, d := range e.sims {
		n += d.Size()
	}
	return n
}

// budget bounds one phase of a client — warm-up or one slice of the
// measured region: ops when positive, otherwise the deadline.
type budget struct {
	ops      int
	deadline time.Time
}

// defaultSlices is how many equal consecutive slices the measured
// region is cut into. The timing metrics are medians over slices, not
// figures of the region, so that a burst from a noisy neighbour spoils
// a slice and not the run; and the clients stop between slices while
// the reference kernel (calib.go) reads the host's speed, so that every
// slice is judged against the host as it was around it.
const defaultSlices = 60

// sliceStat is what one client saw in the slice it is in.
type sliceStat struct {
	ops, ns int64
	cpuNs   int64 // op-clock workloads only: process CPU over the ops
	lat     hist
}

// client is one closed-loop load generator and what it measured.
type client struct {
	op         opFunc
	prep, post func(i int) error
	ctx        *opCtx
	timeEvery  int // every n-th op is timed
	next       int // index of the next op

	cur       sliceStat // the slice being run
	lat       hist      // every sample of the slices before it
	attempted int64
	failed    int64
	violated  int64
	userBytes int64
	// Op-clock workloads only: allocation and (traced) device counters
	// summed over the ops themselves.
	allocB   uint64
	devs     func() devCounts
	dev      devCounts
	firstErr error
}

func (c *client) fail(err error) {
	c.failed++
	if errors.Is(err, errViolation) {
		c.violated++
	}
	if c.firstErr == nil || (errors.Is(err, errViolation) && !errors.Is(c.firstErr, errViolation)) {
		c.firstErr = err
	}
}

func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// run issues ops until the budget is used. With record false (warm-up)
// nothing is kept but the op index.
func (c *client) run(b budget, record bool) {
	opClock := c.prep != nil || c.post != nil
	start := time.Now()
	last := start
	for done := 0; ; done++ {
		if b.ops > 0 && done >= b.ops || b.ops == 0 && !last.Before(b.deadline) {
			break
		}
		i := c.next
		c.next++
		if c.prep != nil {
			if err := c.prep(i); err != nil {
				if record {
					c.attempted++
					c.fail(err)
				}
				last = time.Now()
				continue
			}
		}
		if c.timeEvery > 1 && i%c.timeEvery != 0 {
			n, err := c.op(i)
			if record {
				c.attempted++
				c.userBytes += int64(n)
				if err != nil {
					c.fail(err)
				} else {
					c.cur.ops++
				}
			}
			continue
		}
		var cpu0 int64
		var alloc0 uint64
		var dev0 devCounts
		if opClock && record {
			dev0, alloc0, cpu0 = c.devs(), totalAlloc(), cpuTime()
		}
		t0 := time.Now()
		var sc scope
		if c.ctx != nil && record {
			sc = c.ctx.beginOp(i, int64(t0.Sub(c.ctx.tr.t0)))
		}
		n, err := c.op(i)
		t1 := time.Now()
		last = t1
		if c.ctx != nil && record {
			c.ctx.endOp(sc, int64(t1.Sub(c.ctx.tr.t0)))
		}
		if opClock && record {
			c.cur.cpuNs += cpuTime() - cpu0
			c.allocB += totalAlloc() - alloc0
			c.dev = c.dev.add(c.devs().sub(dev0))
		}
		if err == nil && c.post != nil {
			err = c.post(i)
			last = time.Now()
		}
		if !record {
			continue
		}
		c.attempted++
		c.userBytes += int64(n)
		if err != nil {
			c.fail(err)
			continue
		}
		d := int64(t1.Sub(t0))
		c.cur.lat.add(d)
		c.cur.ops++
		if opClock {
			c.cur.ns += d
		}
	}
	if record && !opClock {
		c.cur.ns += int64(time.Since(start))
	}
}

// measurement is what the measured region of a run produced.
type measurement struct {
	clients []*client
	wall    time.Duration // the slices' own time, without the readings between them
	// One value per slice, as measured: throughput (per client ops ÷
	// time in the slice, summed over clients), the median op latency
	// over all clients, process CPU per op, and the host's speed factor
	// from the reference kernel's readings before and after the slice.
	rate, p50us, cpuUs, speed []float64
	allocB                    uint64
	heapLive                  uint64
	warmOps                   int64
	written0                  int64 // bytes written to the devices, at both edges of the region
	written1                  int64
	dev                       devCounts // decorator counters over the region (traced)
	stats0                    aru.Stats
	stats1                    aru.Stats
	hists0                    map[string]aru.HistSnapshot
	hists1                    map[string]aru.HistSnapshot
	setupS                    float64 // median set-up time in reference seconds, and as measured
	rawSetupS                 float64
	devBytes                  int64
	sampleN                   int64
	opClocked                 bool
}

func (m *measurement) totals() (lat hist, attempted, failed, violated, userBytes int64, firstErr error) {
	for _, c := range m.clients {
		lat.merge(&c.lat)
		attempted += c.attempted
		failed += c.failed
		violated += c.violated
		userBytes += c.userBytes
		if c.firstErr != nil && (firstErr == nil || errors.Is(c.firstErr, errViolation)) {
			firstErr = c.firstErr
		}
	}
	return
}

// endSlice closes the slice the clients have just run: cpuNs is the
// process CPU it used, before and after the host's speed factor as read
// on either side of it.
func (m *measurement) endSlice(cpuNs int64, before, after float64) {
	var lat hist
	var ops int64
	var rate float64
	for _, c := range m.clients {
		s := &c.cur
		if s.ns > 0 {
			rate += float64(s.ops) / (float64(s.ns) / 1e9)
		}
		lat.merge(&s.lat)
		ops += s.ops
		if m.opClocked {
			cpuNs += s.cpuNs
		}
		c.lat.merge(&s.lat)
		c.cur = sliceStat{}
	}
	var cpuUs float64
	if ops > 0 {
		cpuUs = float64(cpuNs) / 1e3 / float64(ops)
	}
	m.rate, m.p50us, m.cpuUs = append(m.rate, rate), append(m.p50us, lat.quantile(0.5)/1e3), append(m.cpuUs, cpuUs)
	m.speed = append(m.speed, (before+after)/2)
}

func histsByName(t *aru.Tracer) map[string]aru.HistSnapshot {
	if t == nil {
		return nil
	}
	m := make(map[string]aru.HistSnapshot)
	for _, h := range t.Histograms() {
		m[h.Name] = h
	}
	return m
}

// drive runs every client through one phase of n ops each — or, when
// the run is bounded by time, of duration d — and waits for all of them.
// With record false the phase is warm-up.
func drive(clients []*client, n int, d time.Duration, record bool) {
	b := budget{ops: n}
	if d > 0 {
		b.ops, b.deadline = 0, time.Now().Add(d)
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(b, record)
		}(c)
	}
	wg.Wait()
}

// runWorkload sets the workload up, warms it, measures it, checks its
// outputs and tears it down.
func runWorkload(def *workloadDef, cfg config) (*runResult, error) {
	if cfg.setups < 1 {
		cfg.setups = 1
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(def.procs))
	var (
		e                 *env
		inst              *instance
		setups, rawSetups []float64
	)
	if cfg.refPasses == 0 {
		cfg.refPasses = defaultRefPasses
	}
	ref, err := newHostReader(def.netShare)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	before, err := ref.read(3 * cfg.refPasses)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	for k := 0; k < cfg.setups; k++ {
		if inst != nil {
			inst.close()
			inst, e = nil, nil
		}
		runtime.GC()
		e = newEnv(def, cfg)
		t0 := time.Now()
		if inst, err = def.setup(e); err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", def.name, err)
		}
		s := time.Since(t0).Seconds()
		after, err := ref.read(3 * cfg.refPasses)
		if err != nil {
			inst.close()
			return nil, fmt.Errorf("%s: %w", def.name, err)
		}
		rawSetups = append(rawSetups, s)
		setups = append(setups, s/((before+after)/2))
		before = after
	}
	defer inst.close()

	// Warm-up is a tenth of the ops (or of the time), untimed and
	// uncounted. A slice holds at least one op.
	total := e.scaled(def.ops, 10)
	warm := total / 10
	nSlices := cfg.slices
	if nSlices == 0 {
		nSlices = defaultSlices
	}
	if cfg.seconds == 0 && nSlices > total-warm {
		nSlices = total - warm
	}

	m := &measurement{setupS: median(setups), rawSetupS: median(rawSetups), opClocked: inst.prep != nil || inst.post != nil}
	for c, op := range inst.clients {
		m.clients = append(m.clients, &client{op: op, prep: inst.prep, post: inst.post,
			ctx: e.ctx(c), timeEvery: def.timeEvery, devs: e.devCounts})
	}
	timed := time.Duration(cfg.seconds * float64(time.Second))
	warmStart := time.Now()
	drive(m.clients, warm, timed/10, false)
	warmWall := time.Since(warmStart)
	for _, c := range m.clients {
		m.warmOps += int64(c.next)
	}

	if e.tr != nil {
		// Choose the sampling rate from what warm-up showed, so the
		// measured region's spans fit the buffer.
		expectOps := float64(total-warm) * float64(def.clients)
		if timed > 0 {
			expectOps = float64(m.warmOps) / warmWall.Seconds() * timed.Seconds()
		}
		// Only timed ops open a client span, so the sample is among those
		// — except that with several clients device spans are roots,
		// sampled among all device calls.
		dev, other := e.tr.accSpans()
		timedOps := expectOps / float64(def.timeEvery)
		spans := timedOps * (float64(other)/float64(m.warmOps) + 1)
		if e.tr.single {
			spans += timedOps * float64(dev) / float64(m.warmOps)
		} else {
			spans += expectOps * float64(dev) / float64(m.warmOps)
		}
		every := int64(math.Ceil(spans * 1.5 / spanCap))
		if every < 1 {
			every = 1
		}
		m.sampleN = every
		e.tr.resetAcc()
		e.tr.sampleEvery.Store(every)
	}

	runtime.GC()
	if inst.mark != nil {
		inst.mark()
	}
	m.stats0, m.written0, m.hists0 = inst.stats(), e.bytesWritten(), histsByName(e.etr)
	dev0 := e.devCounts()
	alloc0 := totalAlloc()
	if before, err = ref.read(cfg.refPasses); err != nil {
		return nil, fmt.Errorf("%s: %w", def.name, err)
	}
	for k := 0; k < nSlices; k++ {
		// Slice k's share of the ops: they add up to total-warm exactly.
		ops := (total-warm)*(k+1)/nSlices - (total-warm)*k/nSlices
		cpu0, t0 := cpuTime(), time.Now()
		drive(m.clients, ops, timed/time.Duration(nSlices), true)
		m.wall += time.Since(t0)
		cpu := cpuTime() - cpu0
		if m.opClocked {
			cpu = 0 // the clients sampled it around each op
		}
		after, err := ref.read(cfg.refPasses)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", def.name, err)
		}
		m.endSlice(cpu, before, after)
		before = after
	}
	m.allocB = totalAlloc() - alloc0
	if e.tr != nil {
		e.tr.sampleEvery.Store(0)
	}
	m.stats1, m.written1, m.hists1 = inst.stats(), e.bytesWritten(), histsByName(e.etr)
	m.dev = e.devCounts().sub(dev0)
	if m.opClocked {
		// Only what the ops themselves allocated and did to the devices.
		m.dev, m.allocB = devCounts{}, 0
		for _, c := range m.clients {
			m.dev = m.dev.add(c.dev)
			m.allocB += c.allocB
		}
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapLive, m.devBytes = ms.HeapAlloc-ref.mem.bytes(), e.deviceBytes()

	res := newRunResult(def, cfg, m, inst)
	if err := inst.verify(); err != nil {
		// The end-of-run check counts as one more op, and it failed.
		res.Attempted++
		res.Failed++
		res.Violations++
		res.FailedFrac = float64(res.Failed) / float64(res.Attempted)
		res.FirstError = err.Error()
	}
	if e.tr != nil {
		res.addLayerMetrics(e, m, inst)
		if cfg.traceOut != "" {
			if err := e.tr.writeChromeTrace(cfg.traceOut, def.name); err != nil {
				return nil, fmt.Errorf("%s: writing trace: %w", def.name, err)
			}
		}
	}
	return res, nil
}
