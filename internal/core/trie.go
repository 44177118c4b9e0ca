package core

// trie.go is the entry index every Report keeps: a persistent hash array
// mapped trie (HAMT) holding each entry by value in a leaf. An entry's
// identity is its (App, ActionUID, RootCause), compared field by field, so
// a leaf needs no key beside its entry. Nodes are 32-way, indexed by
// successive 5-bit slices of the identity's hash (hashOf); identities
// whose full 64-bit hashes collide share a linear bucket at the bottom.
// Every leaf carries a version stamp — the version its entry last changed
// at — and every node the newest stamp below it, so "what changed after
// version v" is a walk that skips every subtree stamped at or before v.
// Those stamps are a node's only change tracker: deltas and the
// incremental fold both read them (snapshot.go).
//
// Ownership decides whether a write copies, by one rule for nodes and
// leaves alike: each carries the edit token of the trie that created it,
// and a trie changes in place only what carries its own token. A trie
// that was handed out to readers is never written again: batch derives a
// new trie that shares all of its nodes and leaves, and the batch's first
// write to a node or leaf copies it once, with the batch's token; later
// writes in the batch change that copy in place. The handed-out trie
// stays unchanged, and a batch that changes k entries costs at most one
// copy per node on their paths and one per leaf. Nodes take the compressed
// layout of Steindorfer and Vinju's CHAMP (OOPSLA 2015), in which a slot
// is one pointer, so a full node's slots copy in 256 bytes. A leaf is its
// entry plus its stamp, hash and edit token, one 160-byte object on 64-bit
// platforms (a Go size class), so merging into an entry in place is a
// write to its leaf: a report merges in place only into entries its trie
// owns (Report.add, and Report.MergeWireRun through writableGroup).
//
// Iteration order is unspecified; every rendered output sorts.

import (
	"hash/maphash"
	"math/bits"
	"slices"
)

const (
	trieBits = 5
	trieMask = 1<<trieBits - 1
	// trieBucket is the shift at which the 64 hash bits are used up: a
	// node there is a collision bucket of leaves in insertion order.
	trieBucket = 64
	// lockstep is the most identities writableGroup walks at once: enough
	// independent loads to keep a walk's cache misses in flight together.
	// Groups of 8 and 32 measured alike.
	lockstep = 16
)

var trieSeed = maphash.MakeSeed()

// hashOf returns the trie hash of e's identity without allocating: each
// identity field's maphash, folded in order by a multiply with an odd
// constant, which is a bijection, so swapping two fields changes the
// hash.
func hashOf(e *ReportEntry) uint64 {
	const k = 0x9e3779b97f4a7c15
	h := maphash.String(trieSeed, e.App)
	h = h*k ^ maphash.String(trieSeed, e.ActionUID)
	return h*k ^ maphash.String(trieSeed, e.RootCause)
}

// editToken identifies one writer. It has a byte so every token gets its
// own address; tokens compare equal under reflect.DeepEqual, so two tries
// holding the same entries in the same shape stay deeply equal.
type editToken struct{ _ byte }

// trieLeaf holds one entry with the hash of its identity: an entry costs
// the garbage collector one object, as in a map. Only the trie whose token
// it carries changes it or its entry, so tries share leaves freely:
// versions of a persistent trie, and a fold with the parts it shares.
// Copying a leaf into another trie keeps h, so only an entry arriving from
// outside a report (Add, the JSON import, a wire merge) is hashed.
type trieLeaf struct {
	edit  *editToken
	ver   uint64
	h     uint64
	entry ReportEntry
}

// newLeaf returns a new leaf of t, stamped t.ver, holding a clone of src
// (whose identity hashes to h) with devs merged in: the report algebra's
// empty-then-merge, built in place in the leaf's own entry. The clone
// shares src's device set and chain, so without devs the leaf is its only
// object.
func (t *entryTrie) newLeaf(h uint64, src *ReportEntry, devs []string) *trieLeaf {
	l := &trieLeaf{edit: t.token(), ver: t.ver, h: h, entry: *src.empty()}
	l.entry.merge(src, devs)
	return l
}

// trieNode is a branch. Two bitmaps say which of its 32 positions hold a
// leaf and which a child node, and each kind sits in its own array in
// position order, so a slot is one pointer wide. A collision bucket, a
// node at trieBucket, has empty bitmaps and holds leaves in insertion
// order.
type trieNode struct {
	edit     *editToken
	leafMap  uint32 // positions holding a leaf
	childMap uint32 // positions holding a child node
	ver      uint64 // newest stamp below
	leaves   []*trieLeaf
	kids     []*trieNode
}

// entryTrie is a trie root plus its size. The zero value is empty.
type entryTrie struct {
	root *trieNode
	n    int
	edit *editToken // taken on the first write
	// ver stamps every leaf t writes: 0 unless a SnapshotCache versions
	// t's report, which keeps it at the version of the batch being merged.
	ver uint64
}

// batch returns a trie sharing every node and leaf of t whose writes
// never touch t's. t must not be written in place afterwards.
func (t *entryTrie) batch() entryTrie { return entryTrie{root: t.root, n: t.n, ver: t.ver} }

// token returns t's edit token, taking one on t's first write.
func (t *entryTrie) token() *editToken {
	if t.edit == nil {
		t.edit = new(editToken)
	}
	return t.edit
}

// owns reports whether t created what carries edit, a node or a leaf,
// since t was last handed out, so that t may change it in place.
func (t *entryTrie) owns(edit *editToken) bool { return edit == t.edit }

// own returns n if t may change it in place, else t's copy of it.
func (t *entryTrie) own(n *trieNode) *trieNode {
	if t.owns(n.edit) {
		return n
	}
	c := *n
	c.edit, c.leaves, c.kids = t.edit, slices.Clone(n.leaves), slices.Clone(n.kids)
	return &c
}

// position returns the bit of the position h takes in a node at shift.
func position(shift uint, h uint64) uint32 { return 1 << (h >> shift & trieMask) }

// index returns the array index of the position bit in a node whose
// positions of that kind are m.
func index(m, bit uint32) int { return bits.OnesCount32(m & (bit - 1)) }

// at returns what n, a node at shift, holds on the path of id's identity
// (hash h): the child to descend into, or else the leaf there, which may
// hold another identity, or neither. In a collision bucket the leaf on the
// path is id's own, if any.
func (n *trieNode) at(shift uint, h uint64, id *ReportEntry) (*trieLeaf, *trieNode) {
	if shift >= trieBucket {
		for _, l := range n.leaves {
			if l.entry.sameID(id) {
				return l, nil
			}
		}
		return nil, nil
	}
	switch bit := position(shift, h); {
	case n.leafMap&bit != 0:
		return n.leaves[index(n.leafMap, bit)], nil
	case n.childMap&bit != 0:
		return nil, n.kids[index(n.childMap, bit)]
	}
	return nil, nil
}

// find returns the leaf below n holding id's identity (hash h), or nil.
func (n *trieNode) find(shift uint, h uint64, id *ReportEntry) *trieLeaf {
	for n != nil {
		l, child := n.at(shift, h, id)
		if child == nil {
			if l != nil && l.h == h && l.entry.sameID(id) {
				return l
			}
			return nil
		}
		n, shift = child, shift+trieBits
	}
	return nil
}

// writable returns t's entry of id's identity (hash h), stamped t.ver, for
// the caller to merge into in place, or nil if t holds none. The walk
// raises the stamp of each node t owns; a leaf t owns has only such nodes
// on its path, and any other leaf is replaced by t's copy of it, whose
// put copies the path.
func (t *entryTrie) writable(h uint64, id *ReportEntry) *ReportEntry {
	t.token()
	for n, shift := t.root, uint(0); n != nil; shift += trieBits {
		l, child := n.at(shift, h, id)
		if l == nil && child == nil {
			return nil
		}
		if t.owns(n.edit) {
			n.ver = max(n.ver, t.ver)
		}
		switch {
		case child != nil:
			n = child
			continue
		case l.h != h || !l.entry.sameID(id):
			return nil
		case t.owns(l.edit):
			l.ver = t.ver
		default:
			l = t.newLeaf(h, &l.entry, nil)
			t.put(l)
		}
		return &l.entry
	}
	return nil
}

// writableGroup is writable for up to lockstep identities at once, without
// copying: it sets es[k] to t's entry of ids[k]'s identity (hash hs[k]),
// stamped t.ver, where t owns that entry's leaf. Everywhere else it sets
// nil and leaves the identity to writable. That is where t holds no entry
// of it, a snapshot still shares its leaf, or the leaf sits in a
// collision bucket. It walks all the paths one level at a time in one
// loop, then reads the leaves found in another, so that the loads of each
// loop are in flight together rather than one after another. On the way
// down it raises the stamp of each node t owns, as writable does, and
// stores a stamp only where it changes.
func (t *entryTrie) writableGroup(hs []uint64, ids []ReportEntry, es []*ReportEntry) {
	t.token()
	var (
		at     [lockstep]*trieNode
		leaves [lockstep]*trieLeaf
	)
	for k := range ids {
		at[k] = t.root
	}
	for shift, deeper := uint(0), true; deeper && shift < trieBucket; shift += trieBits {
		deeper = false
		for k, n := range at[:len(ids)] {
			if n == nil {
				continue
			}
			at[k] = nil
			switch bit := position(shift, hs[k]); {
			case n.childMap&bit != 0:
				at[k], deeper = n.kids[index(n.childMap, bit)], true
			case n.leafMap&bit != 0:
				leaves[k] = n.leaves[index(n.leafMap, bit)]
			default:
				continue
			}
			if t.owns(n.edit) && n.ver < t.ver {
				n.ver = t.ver
			}
		}
	}
	for k, l := range leaves[:len(ids)] {
		es[k] = nil
		if l != nil && t.owns(l.edit) && l.h == hs[k] && l.entry.sameID(&ids[k]) {
			l.ver = t.ver
			es[k] = &l.entry
		}
	}
}

// bind puts a new leaf of t (newLeaf) for src's identity, whose hash is h.
// It returns the leaf's entry and the entry it replaced (nil if the
// identity is new).
func (t *entryTrie) bind(h uint64, src *ReportEntry, devs []string) (bound, old *ReportEntry) {
	l := t.newLeaf(h, src, devs)
	if o := t.put(l); o != nil {
		old = &o.entry
	}
	return &l.entry, old
}

// put stores l for its entry's identity, whose hash is l.h, and returns
// the leaf it replaced (nil if the identity is new). Putting the leaf an
// identity already has changes (and copies) nothing; a copy of it
// replaces it.
func (t *entryTrie) put(l *trieLeaf) *trieLeaf {
	t.token()
	var old *trieLeaf
	t.root, old = t.setAt(t.root, 0, l)
	if old == nil {
		t.n++
	}
	return old
}

// setAt stores l below n at shift, returning n's replacement and the leaf
// l replaced.
func (t *entryTrie) setAt(n *trieNode, shift uint, l *trieLeaf) (*trieNode, *trieLeaf) {
	if n == nil { // an empty trie's root
		return &trieNode{edit: t.edit, leafMap: position(0, l.h), ver: l.ver, leaves: []*trieLeaf{l}}, nil
	}
	var old *trieLeaf
	if shift >= trieBucket {
		i := slices.IndexFunc(n.leaves, func(o *trieLeaf) bool { return o.entry.sameID(&l.entry) })
		switch {
		case i < 0:
			n = t.own(n)
			n.leaves = append(n.leaves, l)
		case n.leaves[i] == l:
			return n, l
		default:
			old = n.leaves[i]
			n = t.own(n)
			n.leaves[i] = l
		}
		n.ver = max(n.ver, l.ver)
		return n, old
	}
	bit := position(shift, l.h)
	switch {
	case n.childMap&bit != 0:
		i := index(n.childMap, bit)
		var c *trieNode
		c, old = t.setAt(n.kids[i], shift+trieBits, l)
		if c == n.kids[i] && n.ver >= l.ver {
			return n, old
		}
		n = t.own(n)
		n.kids[i] = c
	case n.leafMap&bit == 0:
		n = t.own(n)
		n.leaves = slices.Insert(n.leaves, index(n.leafMap, bit), l)
		n.leafMap |= bit
	case n.leaves[index(n.leafMap, bit)] == l:
		return n, l
	default:
		i := index(n.leafMap, bit)
		o := n.leaves[i]
		n = t.own(n)
		if o.h == l.h && o.entry.sameID(&l.entry) {
			old, n.leaves[i] = o, l
			break
		}
		// Another identity holds the position: both move one level down.
		n.leaves = slices.Delete(n.leaves, i, i+1)
		n.leafMap &^= bit
		n.kids = slices.Insert(n.kids, index(n.childMap, bit), t.pair(shift+trieBits, o, l))
		n.childMap |= bit
	}
	n.ver = max(n.ver, l.ver)
	return n, old
}

// pair builds the subtree at shift holding leaves a and b.
func (t *entryTrie) pair(shift uint, a, b *trieLeaf) *trieNode {
	n := &trieNode{edit: t.edit, ver: max(a.ver, b.ver)}
	if shift >= trieBucket {
		n.leaves = []*trieLeaf{a, b}
		return n
	}
	pa, pb := position(shift, a.h), position(shift, b.h)
	switch {
	case pa == pb:
		n.childMap, n.kids = pa, []*trieNode{t.pair(shift+trieBits, a, b)}
		return n
	case pa > pb:
		a, b = b, a
	}
	n.leafMap, n.leaves = pa|pb, []*trieLeaf{a, b}
	return n
}

// remove deletes the entry of id's identity, whose hash is h, reporting
// whether t held one.
func (t *entryTrie) remove(h uint64, id *ReportEntry) bool {
	if t.root == nil {
		return false
	}
	t.token()
	root, removed := t.delAt(t.root, 0, h, id)
	if !removed {
		return false
	}
	if len(root.leaves) == 0 && len(root.kids) == 0 {
		root = nil
	}
	t.root = root
	t.n--
	return true
}

// delAt removes the entry of id's identity below n at shift. A child left
// holding a single leaf is folded into its parent as a leaf, so a trie's
// shape depends only on its set of identities (insertion order aside,
// within collision buckets). Stamps stay: a node may claim a newer stamp
// than it still holds, never an older one.
func (t *entryTrie) delAt(n *trieNode, shift uint, h uint64, id *ReportEntry) (*trieNode, bool) {
	l, child := n.at(shift, h, id)
	switch {
	case child != nil:
		c, removed := t.delAt(child, shift+trieBits, h, id)
		if !removed {
			return n, false
		}
		bit := position(shift, h)
		i := index(n.childMap, bit)
		n = t.own(n)
		if len(c.leaves) == 1 && len(c.kids) == 0 {
			n.kids = slices.Delete(n.kids, i, i+1)
			n.childMap &^= bit
			n.leaves = slices.Insert(n.leaves, index(n.leafMap, bit), c.leaves[0])
			n.leafMap |= bit
		} else {
			n.kids[i] = c
		}
		return n, true
	case l == nil || l.h != h || !l.entry.sameID(id):
		return n, false
	case shift >= trieBucket:
		i := slices.Index(n.leaves, l)
		n = t.own(n)
		n.leaves = slices.Delete(n.leaves, i, i+1)
	default:
		bit := position(shift, h)
		i := index(n.leafMap, bit)
		n = t.own(n)
		n.leaves = slices.Delete(n.leaves, i, i+1)
		n.leafMap &^= bit
	}
	return n, true
}

// each calls fn for every leaf.
func (t *entryTrie) each(fn func(l *trieLeaf)) { t.root.since(0, true, fn) }

// changedSince calls fn for every leaf stamped after v, skipping each
// subtree whose newest stamp is at or before v.
func (t *entryTrie) changedSince(v uint64, fn func(l *trieLeaf)) { t.root.since(v, false, fn) }

func (n *trieNode) since(v uint64, all bool, fn func(l *trieLeaf)) {
	if n == nil || !all && n.ver <= v {
		return
	}
	for _, l := range n.leaves {
		if all || l.ver > v {
			fn(l)
		}
	}
	for _, c := range n.kids {
		c.since(v, all, fn)
	}
}
