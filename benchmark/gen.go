package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"

	"aru"
)

// errViolation marks a correctness violation — wrong bytes, a lost
// acknowledged unit, a partially visible unit — as opposed to an
// operation the engine refused. Both count as failed ops; only a
// violation makes the command exit non-zero.
var errViolation = errors.New("correctness violation")

func violation(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errViolation, fmt.Sprintf(format, args...))
}

// Payloads are self-describing: a 16-byte record — block id, version,
// CRC of the two — repeated through the block. A reader can tell which
// version of which block it got without asking the generator, and a
// torn or mixed block fails the repetition check.
const stampLen = 16

func stamp(buf []byte, id uint64, ver uint32) {
	binary.LittleEndian.PutUint64(buf[0:], id)
	binary.LittleEndian.PutUint32(buf[8:], ver)
	binary.LittleEndian.PutUint32(buf[12:], crc32.ChecksumIEEE(buf[:12]))
	for n := stampLen; n < len(buf); n *= 2 {
		copy(buf[n:], buf[:n])
	}
}

// readStamp returns the id and version a block carries, or false if the
// block is not a well-formed stamp.
func readStamp(buf []byte) (id uint64, ver uint32, ok bool) {
	if binary.LittleEndian.Uint32(buf[12:]) != crc32.ChecksumIEEE(buf[:12]) {
		return 0, 0, false
	}
	if !bytes.Equal(buf[stampLen:], buf[:len(buf)-stampLen]) { // periodic with period stampLen
		return 0, 0, false
	}
	return binary.LittleEndian.Uint64(buf[0:]), binary.LittleEndian.Uint32(buf[8:]), true
}

// checkStamp verifies that buf holds version ver of block id.
func checkStamp(buf []byte, id aru.BlockID, ver uint32) error {
	gotID, gotVer, ok := readStamp(buf)
	switch {
	case !ok:
		return violation("block %d: malformed payload", id)
	case gotID != uint64(id):
		return violation("block %d: payload of block %d", id, gotID)
	case gotVer != ver:
		return violation("block %d: version %d, want %d", id, gotVer, ver)
	}
	return nil
}

// ldOps is the part of aru.Interface the generators call. *aru.Disk,
// *aru.NetClient and *aru.ShardedDisk all provide it, and so does the
// traced decorator.
type ldOps interface {
	BeginARU() (aru.ARUID, error)
	EndARU(a aru.ARUID) error
	CommitDurable(a aru.ARUID) error
	AbortARU(a aru.ARUID) error
	Read(a aru.ARUID, b aru.BlockID, dst []byte) error
	Write(a aru.ARUID, b aru.BlockID, data []byte) error
	NewBlock(a aru.ARUID, lst aru.ListID, pred aru.BlockID) (aru.BlockID, error)
	DeleteBlock(a aru.ARUID, b aru.BlockID) error
	Flush() error
	ListBlocks(a aru.ARUID, lst aru.ListID) ([]aru.BlockID, error)
}

type slot struct {
	id  aru.BlockID
	ver uint32
}

// blockSet is the generator's model of the live blocks: nLists lists
// of per blocks each. List l owns slots [l*per, (l+1)*per) as a ring
// whose head is at head[l]; a list operation deletes the head block and
// appends a new tail block, which takes over the freed slot, so the
// live set keeps its size and nothing is allocated while running.
type blockSet struct {
	lists []aru.ListID
	per   int
	slots []slot
	head  []int
}

func (s *blockSet) headSlot(l int) int { return l*s.per + s.head[l] }
func (s *blockSet) tailSlot(l int) int { return l*s.per + (s.head[l]+s.per-1)%s.per }

// populate creates nLists lists of per stamped blocks each on d with
// simple operations, then flushes.
func populate(d interface {
	ldOps
	NewList(a aru.ARUID) (aru.ListID, error)
}, nLists, per int, buf []byte) (*blockSet, error) {
	s := &blockSet{per: per, slots: make([]slot, nLists*per), head: make([]int, nLists)}
	for l := 0; l < nLists; l++ {
		lst, err := d.NewList(aru.Simple)
		if err != nil {
			return nil, fmt.Errorf("populate: NewList: %w", err)
		}
		s.lists = append(s.lists, lst)
		pred := aru.NilBlock
		for k := 0; k < per; k++ {
			b, err := d.NewBlock(aru.Simple, lst, pred)
			if err != nil {
				return nil, fmt.Errorf("populate: NewBlock: %w", err)
			}
			stamp(buf, uint64(b), 1)
			if err := d.Write(aru.Simple, b, buf); err != nil {
				return nil, fmt.Errorf("populate: Write: %w", err)
			}
			s.slots[l*per+k] = slot{id: b, ver: 1}
			pred = b
		}
	}
	if err := d.Flush(); err != nil {
		return nil, fmt.Errorf("populate: Flush: %w", err)
	}
	return s, nil
}

// verify reads every live block from the committed state and checks it
// against the model, and that every list holds exactly the model's
// blocks in the model's order.
func (s *blockSet) verify(d ldOps, lists []int, buf []byte) error {
	for _, l := range lists {
		for k := 0; k < s.per; k++ {
			sl := s.slots[l*s.per+k]
			if err := d.Read(aru.Simple, sl.id, buf); err != nil {
				return violation("final read of block %d: %v", sl.id, err)
			}
			if err := checkStamp(buf, sl.id, sl.ver); err != nil {
				return err
			}
		}
		got, err := d.ListBlocks(aru.Simple, s.lists[l])
		if err != nil {
			return violation("ListBlocks(%d): %v", s.lists[l], err)
		}
		if len(got) != s.per {
			return violation("list %d has %d blocks, want %d", s.lists[l], len(got), s.per)
		}
		for k, b := range got {
			if want := s.slots[l*s.per+(s.head[l]+k)%s.per].id; b != want {
				return violation("list %d position %d: block %d, want %d", s.lists[l], k, b, want)
			}
		}
	}
	return nil
}

// How a unit ends.
type endKind int

const (
	endARU endKind = iota
	endDurable
)

// unitGen issues the benchmark's unit: BeginARU, three overwrites of
// chosen live blocks, on every fourth unit also NewBlock(tail) + Write +
// DeleteBlock(head) on the first block's list — so the list-operation
// log has something to replay at commit — and then the commit call.
// It is written against ldOps only, so the same generator drives a
// local disk, a sharded disk and (block choice and stamps) the network
// client, and their costs stack by subtraction.
type unitGen struct {
	set   *blockSet
	rng   *rand.Rand
	lists []int // the lists this client works on
	buf   []byte
	// pickList chooses the list of the j-th overwrite of a unit; nil
	// means uniform over lists.
	pickList func(j int) int

	units int
	hash  uint64 // FNV-1a over every (slot, version) issued
	// Changes staged by the unit in progress, applied when it commits.
	staged  [3]struct{ slot, ver int }
	nStaged int
}

func newUnitGen(set *blockSet, lists []int, seed int64, blockSize int) *unitGen {
	return &unitGen{set: set, rng: rand.New(rand.NewSource(seed)), lists: lists,
		buf: make([]byte, blockSize), hash: 14695981039346656037}
}

func (g *unitGen) mix(v uint64) {
	for i := 0; i < 8; i++ {
		g.hash = (g.hash ^ (v & 0xff)) * 1099511628211
		v >>= 8
	}
}

// next picks the j-th overwrite of the unit in progress and stamps its
// payload into g.buf.
func (g *unitGen) next(j int) (slotIdx int, id aru.BlockID) {
	var l int
	if g.pickList != nil {
		l = g.pickList(j)
	} else {
		l = g.lists[g.rng.Intn(len(g.lists))]
	}
	si := l*g.set.per + g.rng.Intn(g.set.per)
	ver := g.set.slots[si].ver
	for k := 0; k < g.nStaged; k++ {
		if g.staged[k].slot == si {
			ver = uint32(g.staged[k].ver)
		}
	}
	ver++
	g.staged[g.nStaged].slot, g.staged[g.nStaged].ver = si, int(ver)
	g.nStaged++
	g.mix(uint64(si)<<32 | uint64(ver))
	id = g.set.slots[si].id
	stamp(g.buf, uint64(id), ver)
	return si, id
}

// commit applies the staged overwrites to the model; abort drops them.
func (g *unitGen) commit() {
	for k := 0; k < g.nStaged; k++ {
		g.set.slots[g.staged[k].slot].ver = uint32(g.staged[k].ver)
	}
	g.nStaged = 0
}

func (g *unitGen) abort() { g.nStaged = 0 }

// unit runs one unit on d and returns the payload bytes of its
// successful writes. On an error the ARU is aborted and the model is
// left as it was.
func (g *unitGen) unit(d ldOps, end endKind) (userBytes int, err error) {
	g.units++
	a, err := d.BeginARU()
	if err != nil {
		return 0, err
	}
	fail := func(err error) (int, error) {
		g.abort()
		_ = d.AbortARU(a) // the op already counts as failed; the unit's leaks are swept by the next check
		return userBytes, err
	}
	first := -1
	for j := 0; j < 3; j++ {
		si, id := g.next(j)
		if first < 0 {
			first = si / g.set.per
		}
		if err := d.Write(a, id, g.buf); err != nil {
			return fail(err)
		}
		userBytes += len(g.buf)
	}
	listOp := g.units%4 == 0
	var nb aru.BlockID
	if listOp {
		s := g.set
		g.mix(uint64(first) | 1<<63)
		if nb, err = d.NewBlock(a, s.lists[first], s.slots[s.tailSlot(first)].id); err != nil {
			return fail(err)
		}
		stamp(g.buf, uint64(nb), 1)
		if err := d.Write(a, nb, g.buf); err != nil {
			return fail(err)
		}
		userBytes += len(g.buf)
		if err := d.DeleteBlock(a, s.slots[s.headSlot(first)].id); err != nil {
			return fail(err)
		}
	}
	if end == endDurable {
		err = d.CommitDurable(a)
	} else {
		err = d.EndARU(a)
	}
	if err != nil {
		// A commit call that fails may still have committed (CommitDurable
		// is EndARU plus Flush; 2PC may fail after its commit point). The
		// committed state decides which model is right.
		_ = d.AbortARU(a)
		last := g.staged[g.nStaged-1]
		rerr := d.Read(aru.Simple, g.set.slots[last.slot].id, g.buf)
		_, ver, ok := readStamp(g.buf)
		deleted := listOp && last.slot == g.set.headSlot(first) && errors.Is(rerr, aru.ErrNoSuchBlock)
		if !deleted && (rerr != nil || !ok || int(ver) != last.ver) {
			g.abort()
			return userBytes, err
		}
	}
	g.commit()
	if listOp {
		s := g.set
		s.slots[s.headSlot(first)] = slot{id: nb, ver: 1}
		s.head[first] = (s.head[first] + 1) % s.per
	}
	return userBytes, err
}
