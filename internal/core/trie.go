package core

// trie.go is the entry index every Report keeps: a persistent hash array
// mapped trie (HAMT) from entry key to *ReportEntry. Nodes are 32-way,
// indexed by successive 5-bit slices of the key's maphash; keys whose full
// 64-bit hashes collide share a linear bucket at the bottom. Every leaf
// carries a version stamp — the version its entry last changed at — and
// every node the newest stamp below it, so "what changed after version v"
// is a walk that skips every subtree stamped at or before v.
//
// Ownership decides whether a write copies. Leaves are immutable (the
// entries they bind follow the report's rule: only the owner of a report
// never handed out merges into its entries in place), and every node
// carries the edit token of the trie that created it; a trie changes its
// own nodes in place. A trie that was never handed out to readers is
// therefore updated in place by its owner. A trie that was handed out is
// never written again: batch derives a new trie that shares all of its
// nodes, and the batch's first write to a node copies it once (stamping
// the copy with the batch's token); later writes in the batch update that
// copy in place. The handed-out trie stays unchanged, and a batch that
// changes k keys costs at most one copy per node on their paths. A slot
// is two pointers, so a full node copies in 512 bytes. Two versions of a
// trie share every unchanged subtree, so diffLeaves compares them in time
// proportional to what changed.
//
// Iteration order is unspecified; every rendered output sorts.

import (
	"hash/maphash"
	"math/bits"
)

const (
	trieBits = 5
	trieMask = 1<<trieBits - 1
	// trieBucket is the shift at which the 64 hash bits are used up: a
	// node there is a collision bucket of leaves in insertion order.
	trieBucket = 64
)

var trieSeed = maphash.MakeSeed()

func keyHash(key string) uint64 { return maphash.String(trieSeed, key) }

// editToken identifies one writer. It has a byte so every token gets its
// own address; tokens compare equal under reflect.DeepEqual, so two tries
// holding the same entries in the same shape stay deeply equal.
type editToken struct{ _ byte }

// trieLeaf binds a key, with its hash, to an entry. Leaves are never
// changed once built, so tries share them freely: every version of a
// persistent trie, and a fold with the parts it shares entries with.
type trieLeaf struct {
	ver uint64
	h   uint64
	key string
	e   *ReportEntry
}

// leafEntry is an entry with the leaf that binds it, allocated as one
// object: a key costs the garbage collector one object, as in a map.
type leafEntry struct {
	leaf  trieLeaf
	entry ReportEntry
}

// cloneLeaf returns a new leaf, stamped ver, binding key (hash h) to a
// clone of src with devs merged in: the report algebra's empty-then-merge,
// built in place in the leaf's own entry.
func cloneLeaf(ver, h uint64, key string, src *ReportEntry, devs []string) *trieLeaf {
	le := &leafEntry{leaf: trieLeaf{ver: ver, h: h, key: key}, entry: *src.empty(len(src.Devices) + len(devs))}
	le.entry.merge(src, devs)
	le.leaf.e = &le.entry
	return &le.leaf
}

// trieSlot holds a leaf or a branch.
type trieSlot struct {
	leaf  *trieLeaf
	child *trieNode
}

type trieNode struct {
	edit   *editToken
	bitmap uint32     // occupied positions; zero in a collision bucket
	ver    uint64     // newest stamp below
	slots  []trieSlot // in position order
}

// entryTrie is a trie root plus its size. The zero value is empty.
type entryTrie struct {
	root *trieNode
	n    int
	edit *editToken // taken on the first write
}

// batch returns a trie sharing every node of t whose writes never touch
// t's nodes. t must not be written in place afterwards.
func (t *entryTrie) batch() entryTrie { return entryTrie{root: t.root, n: t.n} }

// own returns n if t may change it in place, else t's copy of it.
func (t *entryTrie) own(n *trieNode) *trieNode {
	if n.edit == t.edit {
		return n
	}
	return &trieNode{edit: t.edit, bitmap: n.bitmap, ver: n.ver, slots: append([]trieSlot(nil), n.slots...)}
}

// node returns a new node of t holding slots, stamped ver.
func (t *entryTrie) node(bitmap uint32, ver uint64, slots ...trieSlot) *trieNode {
	return &trieNode{edit: t.edit, bitmap: bitmap, ver: ver, slots: slots}
}

// locate returns the index i of the slot on key's path in n, a node at
// shift, or where that slot would go, and whether it is occupied. bit is
// the path's position in n.bitmap. In a collision bucket (bit 0) the slot
// on the path is key's own leaf, if any.
func (n *trieNode) locate(shift uint, h uint64, key string) (i int, bit uint32, hit bool) {
	if shift >= trieBucket {
		for i, s := range n.slots {
			if s.leaf.key == key {
				return i, 0, true
			}
		}
		return len(n.slots), 0, false
	}
	bit = 1 << (h >> shift & trieMask)
	return bits.OnesCount32(n.bitmap & (bit - 1)), bit, n.bitmap&bit != 0
}

// find returns key's leaf below n, or nil.
func (n *trieNode) find(shift uint, h uint64, key string) *trieLeaf {
	for n != nil {
		i, _, hit := n.locate(shift, h, key)
		if !hit {
			return nil
		}
		s := n.slots[i]
		if s.child == nil {
			if s.leaf.h == h && s.leaf.key == key {
				return s.leaf
			}
			return nil
		}
		n, shift = s.child, shift+trieBits
	}
	return nil
}

// leaf returns key's leaf, or nil.
func (t *entryTrie) leaf(key string) *trieLeaf { return t.root.find(0, keyHash(key), key) }

// get returns key's entry, or nil.
func (t *entryTrie) get(key string) *ReportEntry {
	if l := t.leaf(key); l != nil {
		return l.e
	}
	return nil
}

// bind binds key, stamped ver, to a new entry: a clone of src with devs
// merged in. It returns that entry and the one it replaced (nil if key is
// new).
func (t *entryTrie) bind(key string, src *ReportEntry, devs []string, ver uint64) (bound, old *ReportEntry) {
	l := cloneLeaf(ver, keyHash(key), key, src, devs)
	if o := t.put(l); o != nil {
		old = o.e
	}
	return l.e, old
}

// put stores l for l.key, whose hash is l.h, and returns the leaf it
// replaced (nil if the key is new). Putting the leaf a key already holds,
// or an equal one, changes (and copies) nothing.
func (t *entryTrie) put(l *trieLeaf) *trieLeaf {
	if t.edit == nil {
		t.edit = new(editToken)
	}
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
		return t.node(1<<(l.h&trieMask), l.ver, trieSlot{leaf: l}), nil
	}
	i, bit, hit := n.locate(shift, l.h, l.key)
	if !hit {
		n = t.own(n)
		n.bitmap |= bit
		n.slots = append(n.slots, trieSlot{})
		copy(n.slots[i+1:], n.slots[i:])
		n.slots[i] = trieSlot{leaf: l}
		n.ver = max(n.ver, l.ver)
		return n, nil
	}
	s := n.slots[i]
	var old *trieLeaf
	switch {
	case s.child != nil:
		var c *trieNode
		c, old = t.setAt(s.child, shift+trieBits, l)
		if c == s.child && n.ver >= l.ver {
			return n, old
		}
		s.child = c
	case s.leaf.h == l.h && s.leaf.key == l.key:
		if old = s.leaf; *old == *l {
			return n, old
		}
		s.leaf = l
	default:
		// Another key holds the position: both move one level down.
		s.child = t.pair(shift+trieBits, s.leaf, l)
		s.leaf = nil
	}
	n = t.own(n)
	n.slots[i] = s
	n.ver = max(n.ver, l.ver)
	return n, old
}

// pair builds the subtree at shift holding leaves a and b.
func (t *entryTrie) pair(shift uint, a, b *trieLeaf) *trieNode {
	ver := max(a.ver, b.ver)
	if shift >= trieBucket {
		return t.node(0, ver, trieSlot{leaf: a}, trieSlot{leaf: b})
	}
	pa, pb := a.h>>shift&trieMask, b.h>>shift&trieMask
	switch {
	case pa == pb:
		return t.node(1<<pa, ver, trieSlot{child: t.pair(shift+trieBits, a, b)})
	case pa > pb:
		a, b = b, a
	}
	return t.node(1<<pa|1<<pb, ver, trieSlot{leaf: a}, trieSlot{leaf: b})
}

// del removes key, reporting whether it was present.
func (t *entryTrie) del(key string) bool { return t.remove(keyHash(key), key) }

// remove deletes key, whose hash is h.
func (t *entryTrie) remove(h uint64, key string) bool {
	if t.root == nil {
		return false
	}
	if t.edit == nil {
		t.edit = new(editToken)
	}
	root, removed := t.delAt(t.root, 0, h, key)
	if !removed {
		return false
	}
	if len(root.slots) == 0 {
		root = nil
	}
	t.root = root
	t.n--
	return true
}

// delAt removes key below n at shift. A child left holding a single leaf
// is folded into its parent's slot, so a trie's shape depends only on its
// key set (insertion order aside, within collision buckets). Stamps stay:
// a node may claim a newer stamp than it still holds, never an older one.
func (t *entryTrie) delAt(n *trieNode, shift uint, h uint64, key string) (*trieNode, bool) {
	i, bit, hit := n.locate(shift, h, key)
	if !hit {
		return n, false
	}
	s := n.slots[i]
	if s.child == nil {
		if s.leaf.h != h || s.leaf.key != key {
			return n, false
		}
		n = t.own(n)
		n.bitmap &^= bit
		n.slots = removeSlot(n.slots, i)
		return n, true
	}
	c, removed := t.delAt(s.child, shift+trieBits, h, key)
	if !removed {
		return n, false
	}
	n = t.own(n)
	if len(c.slots) == 1 && c.slots[0].child == nil {
		n.slots[i] = c.slots[0]
	} else {
		n.slots[i].child = c
	}
	return n, true
}

// removeSlot deletes s[i], clearing the vacated tail so it pins nothing.
func removeSlot(s []trieSlot, i int) []trieSlot {
	copy(s[i:], s[i+1:])
	s[len(s)-1] = trieSlot{}
	return s[:len(s)-1]
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
	for _, s := range n.slots {
		switch {
		case s.child != nil:
			s.child.since(v, all, fn)
		case all || s.leaf.ver > v:
			fn(s.leaf)
		}
	}
}

// diffLeaves calls fn for every leaf of b (a node at shift) that a does not
// hold at the same place, skipping every subtree the two share: between
// two versions of a persistent trie it costs the changed leaves, not the
// trie. Leaves only a holds are not reported, so an empty b reports none.
func diffLeaves(a, b *trieNode, shift uint, fn func(l *trieLeaf)) {
	switch {
	case a == b, b == nil:
		return
	case a == nil || shift >= trieBucket:
		b.since(0, true, fn)
		return
	}
	for bm, i := b.bitmap, 0; bm != 0; bm, i = bm&(bm-1), i+1 {
		bit, sb := bm&-bm, b.slots[i]
		var sa trieSlot
		if a.bitmap&bit != 0 {
			sa = a.slots[bits.OnesCount32(a.bitmap&(bit-1))]
		}
		switch {
		case sb.child == nil:
			if sb.leaf != sa.leaf {
				fn(sb.leaf)
			}
		case sa.child != nil:
			diffLeaves(sa.child, sb.child, shift+trieBits, fn)
		default:
			sb.child.since(0, true, fn)
		}
	}
}

// deepCopy returns a trie of t's shape whose leaves hold clones of t's
// entries, every one stamped ver.
func (t *entryTrie) deepCopy(ver uint64) entryTrie {
	out := entryTrie{n: t.n, edit: new(editToken)}
	out.root = t.root.deepCopy(out.edit, ver)
	return out
}

func (n *trieNode) deepCopy(edit *editToken, ver uint64) *trieNode {
	if n == nil {
		return nil
	}
	c := &trieNode{edit: edit, bitmap: n.bitmap, ver: ver, slots: make([]trieSlot, len(n.slots))}
	for i, s := range n.slots {
		if s.child != nil {
			c.slots[i].child = s.child.deepCopy(edit, ver)
		} else {
			c.slots[i].leaf = cloneLeaf(ver, s.leaf.h, s.leaf.key, s.leaf.e, nil)
		}
	}
	return c
}
