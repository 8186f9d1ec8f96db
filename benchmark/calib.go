package main

import (
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"
)

// The reference sandbox is a few vCPUs of a shared host whose speed
// moves by tens of percent over minutes: whole runs are slow or fast
// together, so no statistic over the slices of one run removes it.
// What removes it is measuring the host beside the program. Between
// the slices of a run, while no client is running, the benchmark times
// a fixed piece of work of its own — a reference kernel — and reports
// the CPU-bound timings in *reference time*: measured time ÷ the host's
// speed factor around that slice, the kernel's time over its nominal
// time. A host on which the kernel takes exactly its nominal time
// reports its measured times unchanged.
//
// What moves on the sandbox is the memory system and the sibling
// hyperthread, not the clock rate: a chain of dependent multiplies
// repeats within 5 %, while a copy inside the first-level cache swings
// by 60 % and a load from memory by several times. So the memory kernel
// does what the engine's hot paths do, without touching the engine or
// the allocator: it copies 4 KB blocks between scattered places of an
// arena larger than the caches, checksums them, and chases a chain of
// dependent loads through a table.
//
// Code that lives in system calls and goroutine hand-offs moves
// differently again: a round trip over a loopback TCP connection flips
// between 5.5 and 8.6 µs for seconds at a time while the memory kernel
// moves by a sixth, and net_aru's op flips between 40 and 60 µs with it.
// So there is a second kernel, the loopback kernel — round trips of a
// few bytes to an echoing goroutine over plain net.Conn — and a
// workload states what share of its op is of that kind (netShare).
//
// Neither kernel calls anything a later change to the engine can make
// faster or slower. They must run often, close in time to the ops they
// stand for: sixty readings in a run took the run-to-run spread of
// every timing from 13–23 % to 2–9 %; ten did not (README.md,
// "Reference time").

const (
	memArenaBytes = 32 << 20
	memTableSlots = 1 << 18 // 2 MB of uint64
	// One pass of the memory kernel: memPassBlocks block copies with a
	// checksum of each, then memPassLoads dependent loads.
	memPassBlocks = 256
	memPassLoads  = 1 << 13
	// One pass of the loopback kernel: loopPassTrips round trips.
	loopPassTrips = 128
	loopMsgBytes  = 32
	// The pass times that count as speed 1: what the reference sandbox
	// takes when its neighbours are quiet.
	memNominalNs  = 875_000
	loopNominalNs = loopPassTrips * 5_500
	// defaultRefPasses passes of each kernel make the reading between
	// two slices, and three times as many the reading between two
	// set-ups: set-ups are few and short, so each gets a steadier
	// reading than a slice does.
	defaultRefPasses = 4
)

type memKernel struct {
	arena []byte
	table []uint64
	pos   uint64 // walks the arena and the table; carried between passes
	sink  uint32
}

// theMemKernel is made once per process: what it holds stays out of
// every workload's set-up time and allocation count.
var theMemKernel = sync.OnceValue(func() *memKernel {
	k := &memKernel{arena: make([]byte, memArenaBytes), table: make([]uint64, memTableSlots)}
	x := uint64(0x9e3779b97f4a7c15)
	for i := range k.table {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k.table[i] = x
	}
	// Touch every page now, so that no pass pays for a page fault.
	for i := 0; i < len(k.arena); i += blockSize {
		k.arena[i] = byte(x >> uint(i/blockSize%56))
	}
	return k
})

// bytes is the memory the kernel holds; it is the benchmark's, not the
// program's, and is taken out of heap_live_mb.
func (k *memKernel) bytes() uint64 {
	return uint64(len(k.arena) + 8*len(k.table))
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// pass does the fixed work once and returns how long it took.
func (k *memKernel) pass() time.Duration {
	const nBlocks = memArenaBytes / blockSize
	t0 := time.Now()
	p, sink := k.pos, k.sink
	for i := 0; i < memPassBlocks; i++ {
		p = p*6364136223846793005 + 1442695040888963407
		src := int(p>>33) % nBlocks * blockSize
		dst := int(p>>13) % nBlocks * blockSize
		copy(k.arena[dst:dst+blockSize], k.arena[src:src+blockSize])
		sink ^= crc32.Update(sink, crcTable, k.arena[dst:dst+blockSize])
	}
	j := p
	for i := 0; i < memPassLoads; i++ {
		j = k.table[j%memTableSlots] + uint64(i)
	}
	k.pos, k.sink = p+j, sink
	return time.Since(t0)
}

// loopKernel is one TCP connection over loopback to a goroutine that
// echoes what it reads. It lives as long as the process.
type loopKernel struct {
	conn net.Conn
	buf  [loopMsgBytes]byte
}

var theLoopKernel = sync.OnceValues(func() (*loopKernel, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("loopback kernel: %w", err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		var buf [loopMsgBytes]byte
		for {
			if _, err := io.ReadFull(c, buf[:]); err != nil {
				return
			}
			if _, err := c.Write(buf[:]); err != nil {
				return
			}
		}
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return nil, fmt.Errorf("loopback kernel: %w", err)
	}
	return &loopKernel{conn: conn}, nil
})

func (k *loopKernel) pass() (time.Duration, error) {
	t0 := time.Now()
	for i := 0; i < loopPassTrips; i++ {
		if _, err := k.conn.Write(k.buf[:]); err != nil {
			return 0, fmt.Errorf("loopback kernel: %w", err)
		}
		if _, err := io.ReadFull(k.conn, k.buf[:]); err != nil {
			return 0, fmt.Errorf("loopback kernel: %w", err)
		}
	}
	return time.Since(t0), nil
}

// hostReader reads the host's speed for one workload.
type hostReader struct {
	mem      *memKernel
	loop     *loopKernel // nil when netShare is 0
	netShare float64
}

func newHostReader(netShare float64) (*hostReader, error) {
	h := &hostReader{mem: theMemKernel(), netShare: netShare}
	if netShare > 0 {
		var err error
		if h.loop, err = theLoopKernel(); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// read returns how many times slower than nominal the host is now, from
// n passes of each kernel the workload is judged by.
func (h *hostReader) read(n int) (float64, error) {
	var mem, loop time.Duration
	for i := 0; i < n; i++ {
		mem += h.mem.pass()
		if h.loop != nil {
			d, err := h.loop.pass()
			if err != nil {
				return 0, err
			}
			loop += d
		}
	}
	speed := float64(mem) / float64(n) / memNominalNs
	if h.loop != nil {
		speed = (1-h.netShare)*speed + h.netShare*float64(loop)/float64(n)/loopNominalNs
	}
	return speed, nil
}
