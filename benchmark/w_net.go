package main

import (
	"fmt"
	"net"
	"sync/atomic"
	"time"

	"aru"
)

// net_aru: an in-process server on a loopback port and one pipelined
// client connection. An op is BeginARU, three WriteAsync calls awaited
// together, EndARU and one simple Read — the pipelined API used the way
// a good client would. 4 096 live blocks on a 128-segment disk; the
// engine never flushes, it writes segments as they fill.

// tracedBackend times the calls the server makes into the disk. Its
// spans are opened on the session goroutine and hang under the RPC
// phase the client is in.
type tracedBackend struct {
	aru.NetBackend
	tr *tracer
}

const laneServer = 50

func (b *tracedBackend) BeginARU() (aru.ARUID, error) {
	s := b.tr.enterShared(kBegin, laneServer, false)
	a, err := b.NetBackend.BeginARU()
	b.tr.exitShared(s, false)
	return a, err
}

func (b *tracedBackend) Write(a aru.ARUID, blk aru.BlockID, data []byte) error {
	s := b.tr.enterShared(kWrite, laneServer, false)
	err := b.NetBackend.Write(a, blk, data)
	b.tr.exitShared(s, false)
	return err
}

func (b *tracedBackend) EndARU(a aru.ARUID) error {
	s := b.tr.enterShared(kEnd, laneServer, false)
	err := b.NetBackend.EndARU(a)
	b.tr.exitShared(s, false)
	return err
}

func (b *tracedBackend) AbortARU(a aru.ARUID) error {
	s := b.tr.enterShared(kAbort, laneServer, false)
	err := b.NetBackend.AbortARU(a)
	b.tr.exitShared(s, false)
	return err
}

func (b *tracedBackend) Read(a aru.ARUID, blk aru.BlockID, dst []byte) error {
	s := b.tr.enterShared(kRead, laneServer, false)
	err := b.NetBackend.Read(a, blk, dst)
	b.tr.exitShared(s, false)
	return err
}

// wireCounts is what the counting listener saw on the server's side of
// every connection.
type wireCounts struct {
	reads, writes, bytes atomic.Int64
}

type countingListener struct {
	net.Listener
	w *wireCounts
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, w: l.w}, nil
}

type countingConn struct {
	net.Conn
	w *wireCounts
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.w.reads.Add(1)
	c.w.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.w.writes.Add(1)
	c.w.bytes.Add(int64(n))
	return n, err
}

func counterNamed(cs []aru.Counter, name string) int64 {
	for _, c := range cs {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

type netClient struct {
	cl   *aru.NetClient
	ctx  *opCtx
	gen  *unitGen
	rbuf []byte
}

func (c *netClient) op(i int) (userBytes int, err error) {
	g, cl := c.gen, c.cl
	s := c.ctx.enter(kRPCBegin)
	a, err := cl.BeginARU()
	c.ctx.exit(s)
	if err != nil {
		return 0, err
	}

	s = c.ctx.enter(kRPCWrite)
	var calls [3]interface{ Wait() error }
	for j := range calls {
		_, id := g.next(j)
		calls[j] = cl.WriteAsync(a, id, g.buf)
	}
	for _, call := range calls {
		if werr := call.Wait(); werr != nil {
			err = werr
		} else {
			userBytes += blockSize
		}
	}
	c.ctx.exit(s)
	if err != nil {
		g.abort()
		_ = cl.AbortARU(a) // the op already counts as failed
		return userBytes, err
	}

	s = c.ctx.enter(kRPCEnd)
	err = cl.EndARU(a)
	c.ctx.exit(s)
	if err != nil {
		g.abort()
		_ = cl.AbortARU(a)
		return userBytes, err
	}
	g.commit()

	sl := g.set.slots[g.rng.Intn(len(g.set.slots))]
	s = c.ctx.enter(kRPCRead)
	err = cl.Read(aru.Simple, sl.id, c.rbuf)
	c.ctx.exit(s)
	if err != nil {
		return userBytes, err
	}
	return userBytes, checkStamp(c.rbuf, sl.id, sl.ver)
}

func setupNetARU(e *env) (*instance, error) {
	d, err := formatDisk(e, 128, 0)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, blockSize)
	set, err := populate(d, 64, 64, buf)
	if err != nil {
		return nil, err
	}

	var backend aru.NetBackend = d
	wire := &wireCounts{}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	if e.tr != nil {
		backend = &tracedBackend{NetBackend: d, tr: e.tr}
		ln = countingListener{Listener: ln, w: wire}
	}
	srv := aru.NewNetServer(backend, aru.NetServerOptions{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns when Close stops the listener
	}()
	cl, err := aru.Dial(ln.Addr().String(), aru.DialConfig{})
	if err != nil {
		_ = srv.Close()
		<-served
		return nil, fmt.Errorf("dial: %w", err)
	}
	stop := func() {
		_ = cl.Close()
		_ = srv.Close()
		<-served
		_ = d.Close()
	}
	// 1 000 pings: the round trip with no disk behind it.
	const pings = 1000
	pingStart := time.Now()
	for i := 0; i < pings; i++ {
		if err := cl.Ping(); err != nil {
			stop()
			return nil, fmt.Errorf("ping: %w", err)
		}
	}
	pingUs := float64(time.Since(pingStart).Nanoseconds()) / 1e3 / pings

	c := &netClient{cl: cl, ctx: e.ctx(0), rbuf: make([]byte, blockSize),
		gen: newUnitGen(set, allLists(64), e.cfg.seed*16, blockSize)}
	var rpcs0, errs0, wire0 int64
	var wreads0, wwrites0 int64
	inst := &instance{
		clients: []opFunc{c.op},
		close:   stop,
		stats:   d.Stats,
		mark: func() {
			m := srv.Metrics()
			rpcs0, errs0 = m.RPCs(), counterNamed(m.Counters(), "net_rpc_errors")
			wire0, wreads0, wwrites0 = wire.bytes.Load(), wire.reads.Load(), wire.writes.Load()
		},
		hash: func() uint64 { return c.gen.hash },
		verify: func() error {
			if err := cl.Flush(); err != nil {
				return violation("final Flush: %v", err)
			}
			if err := set.verify(cl, allLists(64), buf); err != nil {
				return err
			}
			if err := d.VerifyInternal(); err != nil {
				return violation("VerifyInternal: %v", err)
			}
			return nil
		},
		layers: func(in layerInput, out metricSet) {
			tr, m := in.e.tr, srv.Metrics()
			out.set("ldnet.rpcs_per_op", float64(m.RPCs()-rpcs0)/in.ops)
			out.set("ldnet.failed_rpcs", float64(counterNamed(m.Counters(), "net_rpc_errors")-errs0))
			out.set("ldnet.ping_us", pingUs)
			for _, p := range []struct {
				name string
				k    spanKind
			}{
				{"ldnet.begin_rpc_us", kRPCBegin}, {"ldnet.write_rpc_us", kRPCWrite},
				{"ldnet.end_rpc_us", kRPCEnd}, {"ldnet.read_rpc_us", kRPCRead},
			} {
				v, ok := tr.meanUs(p.k)
				out.setIf(p.name, v, ok)
			}
			var backendNs int64
			for _, k := range []spanKind{kBegin, kWrite, kEnd, kAbort, kRead} {
				backendNs += tr.acc[k].ns.Load()
			}
			out.set("ldnet.backend_us_per_op", float64(backendNs)/1e3/in.ops)
			out.set("ldnet.wire_bytes_per_op", float64(wire.bytes.Load()-wire0)/in.ops)
			out.set("ldnet.conn_reads_per_op", float64(wire.reads.Load()-wreads0)/in.ops)
			out.set("ldnet.conn_writes_per_op", float64(wire.writes.Load()-wwrites0)/in.ops)
		},
	}
	return inst, nil
}
