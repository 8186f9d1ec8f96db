package harness

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"aru"
	"aru/internal/obs"
)

// NetOptions configures RunNetWorkload, the mixed-ARU workload that
// drives any aru.Interface — in particular a remote disk behind
// `aru-bench -connect` — with the transaction shapes the local
// experiments use: multi-block units, aborts, intra-ARU readback and
// committed-state verification.
type NetOptions struct {
	// Ops is the number of ARUs to run (default 1000).
	Ops int
	// Tracer, when non-nil and span-enabled, is censused after the
	// run: NetResult reports how many spans the client recorded and
	// how many its ring dropped, so trace loss is visible next to the
	// throughput numbers (DESIGN.md §13). The workload itself does not
	// emit spans — the traced client it drives does.
	Tracer *obs.Tracer
}

// The workload's fixed shape: blocks spread over netLists lists, each
// unit allocating and writing netBlocksPerARU blocks and making
// netReadsPerARU readback checks (one of its own shadow writes, one
// committed block through a simple read), every netAbortEvery-th unit
// aborted, netVerifySample committed blocks re-read at the end (capped
// at the committed set), all drawn from a generator seeded netSeed.
const (
	netLists        = 8
	netBlocksPerARU = 4
	netReadsPerARU  = 2
	netAbortEvery   = 8
	netVerifySample = 256
	netSeed         = 1
)

// NetResult summarizes one RunNetWorkload pass.
type NetResult struct {
	Ops     int           `json:"ops"`     // ARUs begun
	Commits int           `json:"commits"` // units committed
	Aborts  int           `json:"aborts"`  // units aborted
	Writes  int64         `json:"writes"`  // block writes issued
	Reads   int64         `json:"reads"`   // block reads issued (incl. verification)
	Bytes   int64         `json:"bytes"`   // payload bytes moved
	Elapsed time.Duration `json:"elapsed"` // wall-clock time
	// Spans / SpansDropped census NetOptions.Tracer after the run
	// (both zero when no span-enabled tracer was attached).
	Spans        int    `json:"spans,omitempty"`
	SpansDropped uint64 `json:"spans_dropped,omitempty"`
}

// ARUsPerSec returns committed+aborted units per wall-clock second.
func (r NetResult) ARUsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Ops) / r.Elapsed.Seconds()
}

// IOPerSec returns reads+writes per wall-clock second.
func (r NetResult) IOPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Reads+r.Writes) / r.Elapsed.Seconds()
}

// netPattern fills a deterministic one-block payload for block b:
// verification can recompute it from the identifier alone.
func netPattern(b aru.BlockID, buf []byte) {
	var seed [8]byte
	binary.LittleEndian.PutUint64(seed[:], uint64(b)*0x9e3779b97f4a7c15+1)
	for i := range buf {
		buf[i] = seed[i&7] ^ byte(i)
	}
}

// RunNetWorkload drives d — local disk or remote client alike — with
// a mixed ARU workload and verifies the paper's read semantics along
// the way: every unit re-reads one of its own shadow writes (must see
// its own data), issues a simple read of a committed block (must see
// committed data, never anyone's shadow), and a final pass re-reads a
// sample of committed blocks after Flush.
func RunNetWorkload(d aru.Interface, o NetOptions) (NetResult, error) {
	if o.Ops == 0 {
		o.Ops = 1000
	}
	bs := d.BlockSize()
	rng := rand.New(rand.NewSource(netSeed))
	var res NetResult

	lists := make([]aru.ListID, netLists)
	for i := range lists {
		lst, err := d.NewList(aru.Simple)
		if err != nil {
			return res, fmt.Errorf("networkload: creating list %d: %w", i, err)
		}
		lists[i] = lst
	}

	var committed []aru.BlockID
	buf := make([]byte, bs)
	want := make([]byte, bs)
	start := time.Now()

	for i := 0; i < o.Ops; i++ {
		a, err := d.BeginARU()
		if err != nil {
			return res, fmt.Errorf("networkload: BeginARU #%d: %w", i, err)
		}
		res.Ops++
		wrote := make([]aru.BlockID, 0, netBlocksPerARU)
		for j := 0; j < netBlocksPerARU; j++ {
			b, err := d.NewBlock(a, lists[rng.Intn(len(lists))], aru.NilBlock)
			if err != nil {
				return res, fmt.Errorf("networkload: NewBlock in ARU %d: %w", a, err)
			}
			netPattern(b, buf)
			if err := d.Write(a, b, buf); err != nil {
				return res, fmt.Errorf("networkload: Write block %d: %w", b, err)
			}
			res.Writes++
			res.Bytes += int64(bs)
			wrote = append(wrote, b)
		}
		for j := 0; j < netReadsPerARU; j++ {
			if j%2 == 0 || len(committed) == 0 {
				// Intra-ARU readback: the unit must see its own shadow.
				b := wrote[rng.Intn(len(wrote))]
				if err := d.Read(a, b, buf); err != nil {
					return res, fmt.Errorf("networkload: shadow read of block %d: %w", b, err)
				}
				res.Reads++
				netPattern(b, want)
				if !bytes.Equal(buf, want) {
					return res, fmt.Errorf("networkload: ARU %d read of its own write to block %d returned wrong data", a, b)
				}
			} else {
				// Simple read of a committed block: committed state only.
				b := committed[rng.Intn(len(committed))]
				if err := d.Read(aru.Simple, b, buf); err != nil {
					return res, fmt.Errorf("networkload: committed read of block %d: %w", b, err)
				}
				res.Reads++
				netPattern(b, want)
				if !bytes.Equal(buf, want) {
					return res, fmt.Errorf("networkload: simple read of committed block %d returned wrong data", b)
				}
			}
		}
		if (i+1)%netAbortEvery == 0 {
			if err := d.AbortARU(a); err != nil {
				return res, fmt.Errorf("networkload: AbortARU %d: %w", a, err)
			}
			res.Aborts++
		} else {
			if err := d.EndARU(a); err != nil {
				return res, fmt.Errorf("networkload: EndARU %d: %w", a, err)
			}
			res.Commits++
			committed = append(committed, wrote...)
		}
	}

	if err := d.Flush(); err != nil {
		return res, fmt.Errorf("networkload: Flush: %w", err)
	}

	sample := netVerifySample
	if sample > len(committed) {
		sample = len(committed)
	}
	for j := 0; j < sample; j++ {
		b := committed[rng.Intn(len(committed))]
		if err := d.Read(aru.Simple, b, buf); err != nil {
			return res, fmt.Errorf("networkload: verify read of block %d: %w", b, err)
		}
		res.Reads++
		netPattern(b, want)
		if !bytes.Equal(buf, want) {
			return res, fmt.Errorf("networkload: post-flush read of block %d returned wrong data", b)
		}
	}

	res.Elapsed = time.Since(start)
	if o.Tracer.SpanEnabled() {
		res.Spans = len(o.Tracer.Spans())
		res.SpansDropped = o.Tracer.SpansDropped()
	}
	return res, nil
}

// FormatNet renders a NetResult as the aru-bench table.
func FormatNet(r NetResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "mixed-ARU workload over the LD interface\n")
	fmt.Fprintf(&b, "  ARUs     %8d   (%d committed, %d aborted)\n", r.Ops, r.Commits, r.Aborts)
	fmt.Fprintf(&b, "  writes   %8d   reads %d   payload %.1f MB\n",
		r.Writes, r.Reads, float64(r.Bytes)/(1<<20))
	fmt.Fprintf(&b, "  elapsed  %8s   %.0f ARU/s   %.0f IO/s\n",
		r.Elapsed.Round(time.Millisecond), r.ARUsPerSec(), r.IOPerSec())
	if r.Spans > 0 || r.SpansDropped > 0 {
		fmt.Fprintf(&b, "  spans    %8d   recorded client-side (%d dropped by the ring)\n",
			r.Spans, r.SpansDropped)
	}
	return b.String()
}
