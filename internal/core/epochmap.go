package core

// table is one of the engine's identifier tables — the
// block-number-map, the list-table, the open-ARU table — as a
// persistent (immutable, structurally shared) map from ids to entries
// (*leaf[R], records.go). root is the trie the NEXT publish will
// expose; between publishes it runs ahead of the head's root. It is the
// only copy of the table: the engine reads and edits it under d.mu, and
// lock-free readers reach the roots of published epochs through the
// snapshot head (snapshot.go).
//
// The map is a 16-ary trie descending on the low nibble of the id. A
// slot of a node holds an entry or a child, never both: an entry sits
// in the shallowest slot on its id's path and moves one level down
// when another id claims the slot. An update path-copies the O(log16 n)
// nodes from the root to the slot and shares everything else with the
// previous epoch, so an epoch after k mutations costs O(k log n) nodes,
// not O(n).
//
// Nodes and entries an update replaces are retired into the engine's
// current retire-set rather than dropped, so readers holding an older
// snapshot keep a consistent trie, and recycle through the table's
// pools once the old epoch's refcount drains. Readers never mutate a
// node or an entry; writers mutate only nodes they allocated in the
// same call and entries born in the current window (edit) — except
// before the first publish (mount), when there is no reader and no
// previous epoch to share with, and every node is edited where it is.
type table[R any] struct {
	root *pnode[R]
	n    int // entries under root

	// published says that an epoch has been published, so a node under
	// root may be one a reader holds (set by the first publishLocked).
	published bool

	ret    *retired[R] // the current window's retire lists (d.ret)
	nodes  freeList[*pnode[R]]
	leaves freeList[*leaf[R]]
}

// newTable returns an empty table with its node and leaf pools capped.
func newTable[R any]() table[R] {
	return table[R]{nodes: freeList[*pnode[R]]{max: 4096}, leaves: freeList[*leaf[R]]{max: 2048}}
}

type pnode[R any] struct {
	kids [16]*pnode[R]
	ents [16]*leaf[R]
}

// retired holds the nodes and entries of one table that one publish
// window unshared from the next epoch.
type retired[R any] struct {
	nodes  []*pnode[R]
	leaves []*leaf[R]
}

// pmapGet returns the entry bound to id under root, or nil. The result
// is read-only: mutation goes through table.edit.
func pmapGet[R any](root *pnode[R], id uint64) *leaf[R] {
	for n, k := root, id; n != nil; k >>= 4 {
		if e := n.ents[k&0xf]; e != nil {
			if e.id == id {
				return e
			}
			return nil
		}
		n = n.kids[k&0xf]
	}
	return nil
}

// pmapWalk calls fn for every entry under n until fn returns false.
// Order is unspecified.
func pmapWalk[R any](n *pnode[R], fn func(lf *leaf[R]) bool) bool {
	if n == nil {
		return true
	}
	for i := range n.ents {
		if e := n.ents[i]; e != nil {
			if !fn(e) {
				return false
			}
		} else if !pmapWalk(n.kids[i], fn) {
			return false
		}
	}
	return true
}

// edit is the edit primitive: it returns id's entry (nil if there is
// none) as a leaf the current unpublished window win (d.epoch+1) owns
// and may mutate in place. A leaf born in this window is returned as
// is — no reader can hold it; any other is cloned, and the clone
// replaces it in the trie. A skipped publish does not advance d.epoch,
// so the window — and the ownership — simply continues.
//
// The leaf, and any version pointer taken from it, is valid until the
// next edit of the same identifier (which may move its versions) and
// never across a call that can seal a segment — ensureRoom,
// appendEntry, appendBlockWrite — since a seal materializes and
// promotes arbitrary entries and may publish. Caller holds d.mu.
func (t *table[R]) edit(win, id uint64) *leaf[R] {
	lf := pmapGet(t.root, id)
	if lf == nil || lf.born == win {
		return lf
	}
	nl := t.takeLeaf(win, id)
	nl.hasPersist, nl.persist = lf.hasPersist, lf.persist
	nl.vers = append(nl.vers, lf.vers...)
	t.set(nl)
	return nl
}

// create binds id, which must be unbound, to an empty entry owned by
// the window win.
func (t *table[R]) create(win, id uint64) *leaf[R] {
	lf := t.takeLeaf(win, id)
	t.set(lf)
	t.n++
	return lf
}

// upsert returns id's entry, binding id first if it is unbound (mount:
// every entry is born in the window that folds the checkpoint and
// replays the log, so the result may be edited in place).
func (t *table[R]) upsert(win, id uint64) *leaf[R] {
	if lf := pmapGet(t.root, id); lf != nil {
		return lf
	}
	return t.create(win, id)
}

// remove unbinds id if it is bound.
func (t *table[R]) remove(id uint64) {
	if pmapGet(t.root, id) != nil {
		t.drop(id)
	}
}

// drop unbinds id, which must be bound.
func (t *table[R]) drop(id uint64) {
	t.root = t.del(t.root, id, 0)
	t.n--
}

// set binds lf.id to lf, path-copying from the root and retiring what
// it replaces.
func (t *table[R]) set(lf *leaf[R]) {
	t.root = t.own(t.root)
	n := t.root
	for shift := uint(0); ; shift += 4 {
		i := (lf.id >> shift) & 0xf
		switch old := n.ents[i]; {
		case old != nil && old.id == lf.id:
			t.ret.leaves = append(t.ret.leaves, old)
			n.ents[i] = lf
			return
		case old != nil:
			// The slot's entry moves one level down, and so does lf.
			n.ents[i], n.kids[i] = nil, t.own(nil)
			n.kids[i].ents[(old.id>>(shift+4))&0xf] = old
		case n.kids[i] == nil:
			n.ents[i] = lf
			return
		default:
			n.kids[i] = t.own(n.kids[i])
		}
		n = n.kids[i]
	}
}

// del returns the replacement of n with id unbound (n itself if id is
// not bound under it). Emptied nodes contract to nil so the trie does
// not grow monotonically under create/delete churn.
func (t *table[R]) del(n *pnode[R], id uint64, shift uint) *pnode[R] {
	if n == nil {
		return nil
	}
	i := (id >> shift) & 0xf
	var kid *pnode[R]
	switch e := n.ents[i]; {
	case e != nil && e.id == id:
		t.ret.leaves = append(t.ret.leaves, e)
	case e != nil:
		return n
	default:
		if kid = t.del(n.kids[i], id, shift+4); kid == n.kids[i] {
			return n
		}
	}
	nn := t.own(n)
	nn.ents[i], nn.kids[i] = nil, kid
	if *nn == (pnode[R]{}) {
		t.ret.nodes = append(t.ret.nodes, nn)
		return nil
	}
	return nn
}

// own returns a node the caller may edit in n's place (an empty node for
// nil): a private copy, with n retired for the readers of the epochs that
// hold it — or, while nothing is published, n itself.
func (t *table[R]) own(n *pnode[R]) *pnode[R] {
	if n != nil && !t.published {
		return n
	}
	c, ok := t.nodes.get()
	if !ok {
		c = new(pnode[R])
	}
	if n != nil {
		*c = *n
		t.ret.nodes = append(t.ret.nodes, n)
	}
	return c
}

// takeLeaf returns an empty entry for id born in window win, from the
// pool (keeping the capacity of its version array) or fresh.
func (t *table[R]) takeLeaf(win, id uint64) *leaf[R] {
	lf, ok := t.leaves.get()
	if !ok {
		lf = new(leaf[R])
	}
	lf.id, lf.born = id, win
	return lf
}

// drain recycles the nodes and entries of a drained retire-set into
// the pools, dropping the entries' references to block buffers, and
// empties r (purge path only).
func (t *table[R]) drain(r *retired[R]) {
	r.nodes = t.nodes.drain(r.nodes, func(n *pnode[R]) { *n = pnode[R]{} })
	r.leaves = t.leaves.drain(r.leaves, func(lf *leaf[R]) {
		clear(lf.vers)
		*lf = leaf[R]{vers: lf.vers[:0]}
	})
}
