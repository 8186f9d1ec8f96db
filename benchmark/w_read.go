package main

import (
	"math/rand"

	"aru"
)

// read_mostly: two clients over an 8 192-block working set — eight
// times the engine's default 1 024-block cache, where every other
// workload's set fits — with Zipf(s=1.1, v=8) keys. Fifteen simple
// reads go with every one-block ARU commit, and each client writes
// only its own half of the blocks (even or odd slots), so a reader
// knows the exact version of its own blocks and a lower bound for the
// other client's.
const (
	readLists   = 64
	readPerList = 128
	readMix     = 16 // one op in readMix is a write
)

type readClient struct {
	id   int
	set  *blockSet
	ld   ldOps
	rng  *rand.Rand
	zipf *rand.Zipf
	buf  []byte
	// vers holds the committed version of this client's own slots and
	// the newest version seen so far of the other client's.
	vers []uint32
	hash uint64
}

func (c *readClient) op(i int) (int, error) {
	si := int(c.zipf.Uint64())
	if i%readMix != readMix-1 {
		sl := c.set.slots[si]
		if err := c.ld.Read(aru.Simple, sl.id, c.buf); err != nil {
			return 0, err
		}
		id, ver, ok := readStamp(c.buf)
		switch own := si%2 == c.id; {
		case !ok || id != uint64(sl.id):
			return 0, violation("block %d: malformed payload or wrong block", sl.id)
		case own && ver != c.vers[si]:
			return 0, violation("block %d: version %d, want %d", sl.id, ver, c.vers[si])
		case ver < c.vers[si]:
			return 0, violation("block %d: version went back from %d to %d", sl.id, c.vers[si], ver)
		}
		c.vers[si] = ver
		return 0, nil
	}
	si = si - si%2 + c.id
	sl := c.set.slots[si]
	ver := c.vers[si] + 1
	c.hash = c.hash*1099511628211 ^ uint64(si)<<32 ^ uint64(ver)
	stamp(c.buf, uint64(sl.id), ver)
	a, err := c.ld.BeginARU()
	if err != nil {
		return 0, err
	}
	if err := c.ld.Write(a, sl.id, c.buf); err != nil {
		_ = c.ld.AbortARU(a) // the op already counts as failed
		return 0, err
	}
	if err := c.ld.EndARU(a); err != nil {
		_ = c.ld.AbortARU(a)
		// A failed commit call may still have committed; the committed
		// state decides which version the model holds.
		if c.ld.Read(aru.Simple, sl.id, c.buf) == nil {
			if _, got, ok := readStamp(c.buf); ok && got == ver {
				c.vers[si] = ver
			}
		}
		return blockSize, err
	}
	c.vers[si] = ver
	return blockSize, nil
}

func setupReadMostly(e *env) (*instance, error) {
	d, err := formatDisk(e, 256, 0)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, blockSize)
	set, err := populate(d, readLists, readPerList, buf)
	if err != nil {
		return nil, err
	}
	inst := &instance{close: func() { _ = d.Close() }, stats: d.Stats}
	var cs []*readClient
	for id := 0; id < e.def.clients; id++ {
		rng := rand.New(rand.NewSource(e.cfg.seed*16 + int64(id)))
		c := &readClient{id: id, set: set, ld: e.ld(d, id), rng: rng,
			zipf: rand.NewZipf(rng, 1.1, 8, uint64(len(set.slots)-1)),
			buf:  make([]byte, blockSize), vers: make([]uint32, len(set.slots))}
		for si := range c.vers {
			c.vers[si] = 1
		}
		cs = append(cs, c)
		inst.clients = append(inst.clients, c.op)
	}
	inst.hash = func() (h uint64) {
		for _, c := range cs {
			h ^= c.hash
		}
		return h
	}
	inst.verify = func() error {
		if err := d.Flush(); err != nil {
			return violation("final Flush: %v", err)
		}
		for si := range set.slots {
			set.slots[si].ver = cs[si%2].vers[si]
		}
		if err := set.verify(d, allLists(readLists), buf); err != nil {
			return err
		}
		if err := d.VerifyInternal(); err != nil {
			return violation("VerifyInternal: %v", err)
		}
		return nil
	}
	return inst, nil
}
