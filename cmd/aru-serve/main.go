// Command aru-serve exposes a logical disk to remote clients over the
// ldnet wire protocol — the LD interface as a network service, with
// ARUs bracketing remote operations exactly as they bracket local
// ones. A client that disconnects mid-ARU is handled like a crashed
// client: the server aborts its open units, their shadow state is
// discarded, and the allocations they leaked are swept by the next
// recovery (paper §3.3 applied across the process boundary).
//
// Usage:
//
//	aru-serve [-listen :9477] [-metrics-addr :6060] [-segs N] [-mem]
//	          [-shards N] [-slow-ms N] [-trace-out trace.json] image.lld
//
// If image.lld exists it is opened with full crash recovery (the
// recovery report is printed); otherwise it is created and formatted
// with -segs log segments. -mem serves a volatile in-memory disk
// instead (no image path needed).
//
// -shards N serves an N-way sharded disk: the image argument names a
// directory holding one engine image per shard (shard0.lld …) plus
// the coordinator log (coord.lld). A fresh directory is created and
// formatted; an existing one is opened with full multi-shard recovery
// (per-shard reports are printed, and in-doubt cross-shard prepares
// are resolved against the coordinator log). When opening, the shard
// count is taken from the directory. Clients see one logical disk;
// ARUs spanning shards commit with 2PC and are durable at EndARU.
//
// -metrics-addr serves /metrics with
// the disk's counters and latency histograms plus the network layer's
// per-RPC histograms and session/abort counters, /debug/vars,
// /debug/pprof and /debug/trace (the span timeline as Chrome trace
// JSON — open it in ui.perfetto.dev).
//
// -slow-ms N logs every RPC slower than N milliseconds as a one-line
// JSON record (op, ARU, trace/span ids, last durable batch, duration)
// and triggers the flight recorder. The flight recorder is always on:
// a panic, a slow-RPC breach or SIGUSR1 dumps the recent spans,
// events and histograms to aru-flight-<ts>.json in the working
// directory. -trace-out writes the final span timeline as Chrome
// trace JSON on shutdown.
//
// Drive it with `aru-bench -connect HOST:PORT` or any aru.Dial
// client; stop it with SIGINT/SIGTERM for a clean close (flush +
// checkpoint).
package main

import (
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"aru"
	"aru/internal/obs"
)

// slowLogWriter forwards slow-op records and arms the flight recorder:
// a slow-RPC breach is exactly the moment the recent span history is
// worth keeping (rate-limited by the recorder's MinGap).
type slowLogWriter struct {
	w  io.Writer
	fr *aru.FlightRecorder
}

func (s *slowLogWriter) Write(p []byte) (int, error) {
	if path, err := s.fr.TryDump("slow RPC"); err == nil && path != "" {
		fmt.Fprintf(os.Stderr, "aru-serve: slow RPC — flight record dumped to %s\n", path)
	}
	return s.w.Write(p)
}

// shardCoordRecords sizes a fresh coordinator log: commit records
// outstanding between checkpoints (Checkpoint reclaims the log).
const shardCoordRecords = 4096

// openSharded builds the sharded backend: N in-memory engines under
// -mem, otherwise a directory of engine images (shard0.lld …) plus
// the coordinator log (coord.lld), created fresh or opened with full
// multi-shard recovery. When opening, the shard count stored in the
// directory wins over -shards.
func openSharded(fail func(string, ...any), params aru.Params, segs, shards int, mem bool) *aru.ShardedDisk {
	opts := aru.ShardOptions{Params: params}
	layout := aru.DefaultLayout(segs)
	opts.Params.Layout = layout

	if mem {
		devs := make([]aru.Device, shards)
		for i := range devs {
			devs[i] = aru.NewMemDevice(layout.DiskBytes())
		}
		coord := aru.NewMemDevice(aru.ShardCoordBytes(shardCoordRecords))
		d, err := aru.FormatSharded(devs, coord, opts)
		if err != nil {
			fail("format in-memory sharded disk: %v", err)
		}
		fmt.Printf("aru-serve: serving in-memory sharded disk (%d shards, %d segments each, %d B blocks)\n",
			shards, segs, d.BlockSize())
		return d
	}

	if flag.NArg() != 1 {
		fail("usage: aru-serve -shards N [flags] imagedir")
	}
	dir := flag.Arg(0)
	shardPath := func(i int) string { return filepath.Join(dir, fmt.Sprintf("shard%d.lld", i)) }
	coordPath := filepath.Join(dir, "coord.lld")

	if _, err := os.Stat(shardPath(0)); err == nil {
		// Existing directory: the images on disk define the shard count.
		n := 0
		for {
			if _, err := os.Stat(shardPath(n)); err != nil {
				break
			}
			n++
		}
		if n != shards {
			fmt.Printf("aru-serve: %s holds %d shard images; overriding -shards %d\n", dir, n, shards)
		}
		devs := make([]aru.Device, n)
		for i := range devs {
			dev, err := aru.OpenFileDevice(shardPath(i))
			if err != nil {
				fail("open %s: %v", shardPath(i), err)
			}
			devs[i] = dev
		}
		coord, err := aru.OpenFileDevice(coordPath)
		if err != nil {
			fail("open %s: %v", coordPath, err)
		}
		d, reps, err := aru.OpenShardedReport(devs, coord, opts)
		if err != nil {
			fail("recover %s: %v", dir, err)
		}
		for i, rep := range reps {
			fmt.Printf("aru-serve: recovered shard %d: %d entries replayed, %d ARUs recovered, %d dropped, %d in-doubt (%d committed, %d aborted), %d leaked blocks freed\n",
				i, rep.EntriesReplayed, rep.ARUsRecovered, rep.ARUsDropped,
				rep.InDoubt, rep.InDoubtCommitted, rep.InDoubtAborted, rep.LeakedFreed)
		}
		return d
	}

	if err := os.MkdirAll(dir, 0o777); err != nil {
		fail("create %s: %v", dir, err)
	}
	devs := make([]aru.Device, shards)
	for i := range devs {
		dev, err := aru.CreateFileDevice(shardPath(i), layout.DiskBytes())
		if err != nil {
			fail("create %s: %v", shardPath(i), err)
		}
		devs[i] = dev
	}
	coord, err := aru.CreateFileDevice(coordPath, aru.ShardCoordBytes(shardCoordRecords))
	if err != nil {
		fail("create %s: %v", coordPath, err)
	}
	d, err := aru.FormatSharded(devs, coord, opts)
	if err != nil {
		fail("format %s: %v", dir, err)
	}
	fmt.Printf("aru-serve: created %s (%d shards, %d segments each, %d B blocks)\n",
		dir, shards, segs, d.BlockSize())
	return d
}

func main() {
	listen := flag.String("listen", ":9477", "address to serve the LD protocol on")
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars, /debug/pprof and /debug/trace on this address")
	segs := flag.Int("segs", 128, "log segments when creating a fresh image (0.5 MB each)")
	mem := flag.Bool("mem", false, "serve a volatile in-memory disk instead of an image file")
	shards := flag.Int("shards", 1, "serve an N-way sharded disk (image argument is a directory)")
	quiet := flag.Bool("quiet", false, "suppress per-connection log lines")
	slowMs := flag.Int("slow-ms", 0, "log RPCs slower than this many milliseconds as JSON lines (0 = off)")
	traceOut := flag.String("trace-out", "", "write the span timeline as Chrome trace JSON to this file on shutdown")
	flag.Parse()

	fail := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "aru-serve: "+format+"\n", args...)
		os.Exit(1)
	}

	tracer := aru.NewTracer(aru.TracerConfig{})
	params := aru.Params{Tracer: tracer}

	// The flight recorder is always armed: a panic anywhere under main
	// dumps the recent spans/events/histograms before re-panicking.
	flight := aru.NewFlightRecorder(tracer)
	defer flight.OnPanic()

	// The served disk: a single engine or an N-way sharded one — the
	// network server takes either through the same Backend surface.
	var d aru.NetBackend
	switch {
	case *shards > 1:
		d = openSharded(fail, params, *segs, *shards, *mem)
	case *mem:
		layout := aru.DefaultLayout(*segs)
		dev := aru.NewMemDevice(layout.DiskBytes())
		params.Layout = layout
		ld, err := aru.Format(dev, params)
		if err != nil {
			fail("format in-memory disk: %v", err)
		}
		d = ld
		fmt.Printf("aru-serve: serving in-memory disk (%d segments, %d B blocks)\n",
			*segs, d.BlockSize())
	case flag.NArg() != 1:
		fail("usage: aru-serve [-listen ADDR] [-metrics-addr ADDR] [-segs N] [-mem] [-shards N] image.lld")
	default:
		path := flag.Arg(0)
		if _, err := os.Stat(path); err == nil {
			dev, err := aru.OpenFileDevice(path)
			if err != nil {
				fail("open %s: %v", path, err)
			}
			ld, rep, err := aru.OpenReport(dev, params)
			if err != nil {
				fail("recover %s: %v", path, err)
			}
			d = ld
			fmt.Printf("aru-serve: recovered %s: %d entries replayed, %d ARUs recovered, %d dropped, %d leaked blocks freed\n",
				path, rep.EntriesReplayed, rep.ARUsRecovered, rep.ARUsDropped, rep.LeakedFreed)
		} else {
			layout := aru.DefaultLayout(*segs)
			dev, err := aru.CreateFileDevice(path, layout.DiskBytes())
			if err != nil {
				fail("create %s: %v", path, err)
			}
			params.Layout = layout
			ld, err := aru.Format(dev, params)
			if err != nil {
				fail("format %s: %v", path, err)
			}
			d = ld
			fmt.Printf("aru-serve: created %s (%d segments, %d B blocks)\n",
				path, *segs, d.BlockSize())
		}
	}

	opts := aru.NetServerOptions{Tracer: tracer}
	if !*quiet {
		opts.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if *slowMs > 0 {
		opts.SlowOp = time.Duration(*slowMs) * time.Millisecond
		opts.SlowLog = &slowLogWriter{w: os.Stderr, fr: flight}
	}
	srv := aru.NewNetServer(d, opts)

	if *metricsAddr != "" {
		mOpts := aru.MetricsOptions{
			Tracer: tracer,
			Counters: func() []aru.Counter {
				return append(aru.StatsCounters(d.Stats()), srv.Metrics().Counters()...)
			},
			Extra: srv.Metrics().Histograms,
		}
		if _, addr, err := obs.ServeMetrics(*metricsAddr, mOpts); err != nil {
			fail("metrics listener: %v", err)
		} else {
			fmt.Printf("aru-serve: metrics on http://%s/metrics\n", addr)
		}
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fail("listen %s: %v", *listen, err)
	}
	fmt.Printf("aru-serve: serving the LD interface on %s\n", ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	// SIGUSR1 dumps a flight record on demand (no rate limit: an
	// operator asked for it).
	usr1 := make(chan os.Signal, 1)
	signal.Notify(usr1, syscall.SIGUSR1)
	go func() {
		for range usr1 {
			if path, err := flight.Dump("SIGUSR1"); err == nil {
				fmt.Fprintf(os.Stderr, "aru-serve: flight record dumped to %s\n", path)
			} else {
				fmt.Fprintf(os.Stderr, "aru-serve: flight dump failed: %v\n", err)
			}
		}
	}()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Printf("aru-serve: %v — shutting down\n", s)
	case err := <-serveErr:
		if err != nil {
			fail("serve: %v", err)
		}
	}

	_ = srv.Close()
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fail("trace out: %v", err)
		}
		if err := aru.WriteChromeTrace(f, tracer.Spans()); err == nil {
			err = f.Close()
		}
		if err != nil {
			fail("writing %s: %v", *traceOut, err)
		}
		fmt.Printf("aru-serve: span timeline written to %s (open in ui.perfetto.dev)\n", *traceOut)
	}
	m := srv.Metrics()
	st := d.Stats()
	if err := d.Close(); err != nil {
		fail("close disk: %v", err)
	}
	fmt.Printf("aru-serve: served %d RPCs over %d sessions (%d ARU aborts on disconnect); "+
		"%d ARUs committed, %d aborted; disk closed cleanly\n",
		m.RPCs(), m.SessionsTotal(), m.AbortsOnDisconnect(),
		st.ARUsCommitted, st.ARUsAborted)
}
