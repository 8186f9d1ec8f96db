package crashenum

import (
	"fmt"
	"math/rand"
	"net"

	"aru/internal/core"
	"aru/internal/ldnet"
	"aru/internal/seg"
	"aru/internal/workload"
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
func runNet(seed int64, wp workload.MixedParams, inject string) (*runResult, error) {
	params, err := checkerParams(inject)
	if err != nil {
		return nil, err
	}
	rec := NewRecorder(params.Layout.DiskBytes())
	d, err := core.Format(rec, params)
	if err != nil {
		return nil, fmt.Errorf("crashenum: format: %w", err)
	}
	bsize := params.Layout.BlockSize
	res := &runResult{rec: rec, params: params}

	// The pool is created directly on the engine and checkpointed, as
	// in runMixed: enumeration starts from a durable base.
	poolList, err := d.NewList(seg.SimpleARU)
	if err != nil {
		return nil, err
	}
	res.poolList = poolList
	nPool := wp.PoolBlocks
	if nPool == 0 {
		nPool = 4
	}
	for i := 0; i < nPool; i++ {
		b, err := d.NewBlock(seg.SimpleARU, poolList, core.NilBlock)
		if err != nil {
			return nil, err
		}
		if err := d.Write(seg.SimpleARU, b, poolPayload(bsize, i, 1)); err != nil {
			return nil, err
		}
		res.pool = append(res.pool, &poolFact{id: b})
	}
	if err := d.Flush(); err != nil {
		return nil, err
	}
	if err := d.Checkpoint(); err != nil {
		return nil, err
	}
	res.startEpoch = rec.Epoch()
	for _, pb := range res.pool {
		pb.gens = []genFact{{gen: 1, durableEpoch: res.startEpoch}}
	}

	srv := ldnet.NewServer(d, ldnet.ServerOptions{})
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

	snapshot := func(fact *unitFact) error {
		for _, id := range fact.allLists {
			members, err := cl.ListBlocks(seg.SimpleARU, id)
			if err != nil {
				return fmt.Errorf("crashenum: net snapshot list %d: %w", id, err)
			}
			lf := listFact{id: id, members: members, content: make(map[core.BlockID][]byte)}
			for _, b := range members {
				buf := make([]byte, bsize)
				if err := cl.Read(seg.SimpleARU, b, buf); err != nil {
					return fmt.Errorf("crashenum: net snapshot block %d: %w", b, err)
				}
				lf.content[b] = buf
			}
			fact.lists = append(fact.lists, lf)
		}
		return nil
	}

	nUnits := wp.Units
	if nUnits == 0 {
		nUnits = 16
	}
	rng := rand.New(rand.NewSource(seed ^ 0x6e657464))
	for u := 0; u < nUnits; u++ {
		fact := &unitFact{idx: u, durableEpoch: -1}
		res.units = append(res.units, fact)
		aru, err := cl.BeginARU()
		if err != nil {
			return nil, fmt.Errorf("crashenum: net unit %d: %w", u, err)
		}
		lst, err := cl.NewList(aru)
		if err != nil {
			return nil, fmt.Errorf("crashenum: net unit %d: %w", u, err)
		}
		fact.allLists = append(fact.allLists, lst)
		var live []core.BlockID
		serial := 0
		for n := 2 + rng.Intn(3); n > 0; n-- {
			b, err := cl.NewBlock(aru, lst, core.NilBlock)
			if err != nil {
				return nil, fmt.Errorf("crashenum: net unit %d: %w", u, err)
			}
			fact.allBlocks = append(fact.allBlocks, b)
			live = append(live, b)
			serial++
			if err := cl.Write(aru, b, unitPayload(bsize, u, serial)); err != nil {
				return nil, fmt.Errorf("crashenum: net unit %d: %w", u, err)
			}
		}
		if rng.Intn(2) == 0 {
			serial++
			if err := cl.Write(aru, live[rng.Intn(len(live))], unitPayload(bsize, u, serial)); err != nil {
				return nil, fmt.Errorf("crashenum: net unit %d: %w", u, err)
			}
		}
		if len(live) > 1 && rng.Intn(3) == 0 {
			j := rng.Intn(len(live))
			if err := cl.DeleteBlock(aru, live[j]); err != nil {
				return nil, fmt.Errorf("crashenum: net unit %d: %w", u, err)
			}
		}
		switch rng.Intn(10) {
		case 0, 1:
			if err := cl.AbortARU(aru); err != nil {
				return nil, fmt.Errorf("crashenum: net unit %d abort: %w", u, err)
			}
		case 2, 3, 4:
			// Commit without a durability ack: survival is not owed
			// until a later acked Flush covers it.
			if err := cl.EndARU(aru); err != nil {
				return nil, fmt.Errorf("crashenum: net unit %d commit: %w", u, err)
			}
			fact.committed = true
			if err := snapshot(fact); err != nil {
				return nil, err
			}
		default:
			// Commit-and-flush in one round trip: once the client holds
			// the ack, the unit must survive any later crash.
			if err := cl.CommitDurable(aru); err != nil {
				return nil, fmt.Errorf("crashenum: net unit %d commit-durable: %w", u, err)
			}
			fact.committed = true
			fact.durableEpoch = rec.Epoch()
			if err := snapshot(fact); err != nil {
				return nil, err
			}
		}
		if rng.Intn(3) == 0 {
			j := rng.Intn(len(res.pool))
			pb := res.pool[j]
			gen := len(pb.gens) + 1
			if err := cl.Write(seg.SimpleARU, pb.id, poolPayload(bsize, j, gen)); err != nil {
				return nil, fmt.Errorf("crashenum: net pool write: %w", err)
			}
			pb.gens = append(pb.gens, genFact{gen: gen, durableEpoch: -1})
		}
		if rng.Intn(4) == 0 {
			if err := cl.Flush(); err != nil {
				return nil, fmt.Errorf("crashenum: net flush: %w", err)
			}
			res.markDurable() // an acked Flush covers everything committed before it
		}
	}
	return res, nil
}
