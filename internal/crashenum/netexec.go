package crashenum

import (
	"fmt"
	"math/rand"
	"net"

	"aru/internal/ldnet"
)

// runNet executes a seeded workload through an ldnet client/server
// pair whose server engine sits on a Recorder, producing the same fact
// set as runMixed — but with durability judged by acks the client
// actually received. A unit committed with CommitDurable (commit +
// flush in one round trip) is marked durable at the recorder epoch
// observed after the client got the reply; a unit committed with plain
// EndARU carries no durability ack and becomes durable only at the
// next acknowledged Flush. A crash can therefore land between the
// server's work and the client's ack: such units are committed but
// unacked, and the oracle requires atomicity of them, not survival —
// exactly the guarantee a network client can rely on.
//
// The client issues calls synchronously from one goroutine, so the
// server's device journal is deterministic and states replay.
func runNet(seed int64, o Options) (*execution, error) {
	e, err := formatEngine(o.Inject, nil)
	if err != nil {
		return nil, err
	}
	// The pool is created directly on the engine and checkpointed, as
	// in runMixed, but holds four blocks.
	f := newFacts(e.d, e.now)
	start, err := f.seedPool(4, e.flushAndCheckpoint)
	if err != nil {
		return nil, err
	}

	srv := ldnet.NewServer(e.d, ldnet.ServerOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("crashenum: net listen: %w", err)
	}
	serveDone := make(chan struct{})
	go func() { defer close(serveDone); _ = srv.Serve(ln) }()
	defer func() { _ = srv.Close(); <-serveDone }()
	cl, err := ldnet.Dial(ln.Addr().String(), ldnet.ClientConfig{})
	if err != nil {
		return nil, fmt.Errorf("crashenum: net dial: %w", err)
	}
	defer cl.Close()
	f.d = cl // from here on every operation, and every snapshot, is the client's

	nUnits := o.MixedParams.Units
	if nUnits == 0 {
		nUnits = 16
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6e657464))
	unit := func(idx int) error {
		u, err := f.begin(idx)
		if err != nil {
			return err
		}
		lst, err := u.newList()
		if err != nil {
			return err
		}
		for n := 2 + rng.Intn(3); n > 0; n-- {
			if err := u.newBlock(lst); err != nil {
				return err
			}
		}
		if rng.Intn(2) == 0 {
			if err := u.rewrite(rng.Intn(len(u.live))); err != nil {
				return err
			}
		}
		if len(u.live) > 1 && rng.Intn(3) == 0 {
			if err := u.delete(rng.Intn(len(u.live))); err != nil {
				return err
			}
		}
		switch rng.Intn(10) {
		case 0, 1:
			err = u.abort()
		case 2, 3, 4:
			// Commit without a durability ack: survival is not owed
			// until a later acked Flush covers it.
			err = u.end(cl.EndARU, false)
		default:
			// Commit-and-flush in one round trip: once the client holds
			// the ack, the unit must survive any later crash.
			err = u.end(cl.CommitDurable, true)
		}
		if err != nil {
			return err
		}
		if rng.Intn(3) == 0 {
			if err := f.poolWrite(rng.Intn(len(f.pool))); err != nil {
				return err
			}
		}
		if rng.Intn(4) == 0 {
			if err := cl.Flush(); err != nil {
				return err
			}
			f.markDurable() // an acked Flush covers everything committed before it
		}
		return nil
	}
	for idx := 0; idx < nUnits; idx++ {
		if err := unit(idx); err != nil {
			return nil, fmt.Errorf("crashenum: net unit %d: %w", idx, err)
		}
	}
	return e.execution("net", start, f.judge), nil
}
