package core

// trie_test.go checks the entry trie against a Go map. Random sequences of
// sets, in-place merges, lockstep group merges and deletes run twice at
// once: in place on a trie that is never handed out, and in batches on a
// chain of tries that are handed out one after another. Every handed-out
// trie is re-checked against its map copy at the end, after all later
// batches ran. Each sequence runs with the real key hash and with hashes
// forced to share long prefixes and to collide in full, which drives the
// collision buckets at the bottom.

import (
	"fmt"
	"maps"
	"math/bits"
	"testing"
	"unsafe"

	"hangdoctor/internal/simrand"
)

// trieKeys are the identities the operation streams draw from, each an
// entry that holds nothing else.
var trieKeys = func() []*ReportEntry {
	keys := make([]*ReportEntry, 48)
	for i := range keys {
		keys[i] = rowOf("App", fmt.Sprintf("App/act-%02d", i%5), fmt.Sprintf("c.C%02d.m", i))
	}
	return keys
}()

// collidingHash gives a third of the identities their real hash. The rest
// share every bit but the top two, so they chain down to the last level,
// and identities equal modulo 4 collide in full.
func collidingHash(i int) uint64 {
	if i%3 == 0 {
		return hashOf(trieKeys[i])
	}
	return 0xa5a5a5a5a5a5a5a5 ^ uint64(i%4)<<62
}

// leaf returns the leaf of t holding id's identity, or nil.
func (t *entryTrie) leaf(id *ReportEntry) *trieLeaf { return t.root.find(0, hashOf(id), id) }

// get returns t's entry of id's identity, or nil.
func (t *entryTrie) get(id *ReportEntry) *ReportEntry {
	if l := t.leaf(id); l != nil {
		return &l.entry
	}
	return nil
}

type modelLeaf struct {
	e     *ReportEntry
	ver   uint64
	hangs int // e.Hangs when the model was last told of a write to it
}

// runTrieOps decodes ops two bytes at a time (an operation and an
// identity) and checks every trie it built against the map model, which
// is keyed by the three identity fields. The committed inputs
// under testdata/fuzz/FuzzEntryTrie spell operations 0–5 as the bytes 0–5,
// which decode the same for any operation count above five; renumbering
// those operations changes what the inputs test.
func runTrieOps(t *testing.T, ops []byte, colliding bool) {
	t.Helper()
	hash := func(i int) uint64 { return hashOf(trieKeys[i]) }
	if colliding {
		hash = collidingHash
	}
	type handedOut struct {
		tr    entryTrie
		model map[rowKey]modelLeaf
	}
	var (
		live, cur    entryTrie // in place; batched
		liveModel    = map[rowKey]modelLeaf{}
		model        = map[rowKey]modelLeaf{}
		handed       []handedOut
		ver          = uint64(1)
		writeThrough = func(tr *entryTrie, m map[rowKey]modelLeaf, op int, id *ReportEntry, h uint64) {
			key := keyOf(id)
			was, ok := m[key]
			e := tr.writable(h, id)
			switch {
			case (e != nil) != ok:
				t.Fatalf("op %d: writable(%v) = %v, identity held: %v", op, key, e, ok)
			case e == nil:
				return
			case e.Hangs != was.hangs:
				t.Fatalf("op %d: writable(%v) holds %d hangs, want %d", op, key, e.Hangs, was.hangs)
			}
			e.Hangs++
			m[key] = modelLeaf{e, tr.ver, e.Hangs}
		}
		// groupThrough writes the identities of group through
		// writableGroup as Report.MergeWireRun does: in place where the
		// walk found an entry, else as add does (writeThrough, or a new
		// leaf for an identity the trie does not hold yet).
		groupThrough = func(tr *entryTrie, m map[rowKey]modelLeaf, op int, group []int) {
			hs, ids, es := make([]uint64, len(group)), make([]ReportEntry, len(group)), make([]*ReportEntry, len(group))
			for k, g := range group {
				hs[k], ids[k] = hash(g), *trieKeys[g]
			}
			tr.writableGroup(hs, ids, es)
			for k, e := range es {
				if l := tr.root.find(0, hs[k], &ids[k]); e == nil && l != nil && tr.owns(l.edit) && !bucketed(tr, hs[k], &ids[k]) {
					t.Fatalf("op %d: writableGroup left %v, whose leaf the trie owns, to writable", op, keyOf(&ids[k]))
				}
			}
			for k, e := range es {
				key := keyOf(&ids[k])
				was, ok := m[key]
				switch {
				case e == nil && ok:
					writeThrough(tr, m, op, &ids[k], hs[k])
					continue
				case e == nil:
					e, _ = tr.bind(hs[k], &ids[k], nil)
				case !ok:
					t.Fatalf("op %d: writableGroup(%v) = %v, an identity the trie does not hold", op, key, e)
				case e.Hangs != was.hangs:
					t.Fatalf("op %d: writableGroup(%v) holds %d hangs, want %d", op, key, e.Hangs, was.hangs)
				}
				e.Hangs++
				m[key] = modelLeaf{e, tr.ver, e.Hangs}
			}
		}
	)
	live.ver, cur.ver = ver, ver
	for i := 0; i+1 < len(ops); i += 2 {
		k := int(ops[i+1]) % len(trieKeys)
		id, key, h := trieKeys[k], keyOf(trieKeys[k]), hash(k)
		switch ops[i] % 7 {
		case 0, 1:
			e := *id
			e.Hangs = i
			leaf := &trieLeaf{ver: ver, h: h, entry: e}
			live.put(leaf)
			cur.put(leaf)
			model[key] = modelLeaf{&leaf.entry, ver, i}
			liveModel[key] = model[key]
		case 2:
			// Putting the leaf an identity already has must neither change
			// nor copy anything. A copy of the leaf carries its own entry,
			// so putting it replaces the leaf.
			if l := cur.root.find(0, h, id); l != nil {
				root := cur.root
				if cur.put(l); cur.root != root {
					t.Fatalf("op %d: putting %v's own leaf copied the root", i, key)
				}
				same := *l
				if old := cur.put(&same); old != l || cur.root.find(0, h, id) != &same {
					t.Fatalf("op %d: putting a copy of %v's leaf did not replace the leaf", i, key)
				}
				model[key] = modelLeaf{&same.entry, same.ver, same.entry.Hangs}
			}
		case 3:
			_, ok := model[key]
			if got := live.remove(h, id); got != ok {
				t.Fatalf("op %d: in-place remove(%v) = %v, want %v", i, key, got, ok)
			}
			if got := cur.remove(h, id); got != ok {
				t.Fatalf("op %d: batched remove(%v) = %v, want %v", i, key, got, ok)
			}
			delete(model, key)
			delete(liveModel, key)
		case 4:
			handed = append(handed, handedOut{cur, maps.Clone(model)})
			cur = cur.batch()
			ver++
			live.ver, cur.ver = ver, ver
		case 5:
			// A merge in place copies a leaf the trie did not create
			// since it was last handed out, and writes a leaf it did.
			writeThrough(&live, liveModel, i, id, h)
			writeThrough(&cur, model, i, id, h)
		case 6:
			// A lockstep group: repeated identities, absent ones, leaves a
			// hand-out still shares and, with colliding hashes, leaves in
			// collision buckets.
			group := trieGroup(i, ops[i+1])
			groupThrough(&live, liveModel, i, group)
			groupThrough(&cur, model, i, group)
		}
	}
	checkTrie(t, "in place", &live, liveModel, hash)
	checkTrie(t, "batched", &cur, model, hash)
	for i := range handed {
		checkTrie(t, fmt.Sprintf("handed out #%d", i), &handed[i].tr, handed[i].model, hash)
	}

	// The stamped walk yields exactly the identities stamped after v.
	for v := uint64(0); v <= ver; v++ {
		got := map[rowKey]bool{}
		cur.changedSince(v, func(l *trieLeaf) { got[keyOf(&l.entry)] = true })
		for key, l := range model {
			if got[key] != (l.ver > v) {
				t.Fatalf("changedSince(%d): %v (stamped %d) reported=%v", v, key, l.ver, got[key])
			}
		}
		if len(got) > len(model) {
			t.Fatalf("changedSince(%d) reported identities the trie does not hold", v)
		}
	}

}

// checkTrie compares tr with model and checks its shape: bitmaps are
// disjoint and match the leaf and child counts, every leaf sits on its
// hash's path, node stamps cover
// their subtrees, no node below the root holds a single leaf, and buckets
// appear only once the hash is used up.
func checkTrie(t *testing.T, name string, tr *entryTrie, model map[rowKey]modelLeaf, hash func(int) uint64) {
	t.Helper()
	if tr.n != len(model) {
		t.Fatalf("%s: n=%d, model holds %d", name, tr.n, len(model))
	}
	for k, id := range trieKeys {
		s := tr.root.find(0, hash(k), id)
		key := keyOf(id)
		l, ok := model[key]
		switch {
		case !ok && s != nil:
			t.Fatalf("%s: holds deleted or never-set identity %v", name, key)
		case ok && s == nil:
			t.Fatalf("%s: lost identity %v", name, key)
		case ok && (&s.entry != l.e || s.ver != l.ver || s.entry.Hangs != l.hangs):
			t.Fatalf("%s: %v holds (%p, v%d, %d hangs), want (%p, v%d, %d hangs)", name, key, &s.entry, s.ver, s.entry.Hangs, l.e, l.ver, l.hangs)
		}
	}
	seen := 0
	tr.each(func(l *trieLeaf) {
		seen++
		if model[keyOf(&l.entry)].e != &l.entry {
			t.Fatalf("%s: each visited %v with the wrong entry", name, keyOf(&l.entry))
		}
	})
	if seen != len(model) {
		t.Fatalf("%s: each visited %d entries, want %d", name, seen, len(model))
	}
	if tr.root != nil && len(tr.root.leaves)+len(tr.root.kids) == 0 {
		t.Fatalf("%s: empty root node", name)
	}
	var walk func(n *trieNode, shift uint, prefix uint64)
	walk = func(n *trieNode, shift uint, prefix uint64) {
		newest := uint64(0)
		defer func() {
			if n.ver < newest {
				t.Fatalf("%s: node stamped %d above a slot stamped %d", name, n.ver, newest)
			}
		}()
		if shift >= trieBucket {
			if n.leafMap != 0 || n.childMap != 0 || len(n.kids) != 0 {
				t.Fatalf("%s: collision bucket holds a bitmap or a branch", name)
			}
			for _, l := range n.leaves {
				if l.h != n.leaves[0].h {
					t.Fatalf("%s: collision bucket holds differing hashes", name)
				}
				newest = max(newest, l.ver)
			}
			return
		}
		if n.leafMap&n.childMap != 0 || bits.OnesCount32(n.leafMap) != len(n.leaves) || bits.OnesCount32(n.childMap) != len(n.kids) {
			t.Fatalf("%s: bitmaps %032b and %032b for %d leaves and %d children", name, n.leafMap, n.childMap, len(n.leaves), len(n.kids))
		}
		if shift > 0 && len(n.leaves) == 1 && len(n.kids) == 0 {
			t.Fatalf("%s: a node below the root holds a single leaf", name)
		}
		li, ci := 0, 0
		for p := uint64(0); p <= trieMask; p++ {
			bit, path := uint32(1)<<p, prefix|p<<shift
			switch {
			case n.leafMap&bit != 0:
				l := n.leaves[li]
				li++
				if l.h&(1<<(shift+trieBits)-1) != path&(1<<(shift+trieBits)-1) {
					t.Fatalf("%s: leaf %v off its hash path", name, keyOf(&l.entry))
				}
				newest = max(newest, l.ver)
			case n.childMap&bit != 0:
				c := n.kids[ci]
				ci++
				walk(c, shift+trieBits, path)
				newest = max(newest, c.ver)
			}
		}
	}
	if tr.root != nil {
		walk(tr.root, 0, 0)
	}
}

// bucketed reports whether the path of id's identity (hash h) in tr ends in
// a collision bucket.
func bucketed(tr *entryTrie, h uint64, id *ReportEntry) bool {
	n, shift := tr.root, uint(0)
	for ; n != nil && shift < trieBucket; shift += trieBits {
		_, n = n.at(shift, h, id)
	}
	return n != nil
}

// trieGroup draws the identities of the lockstep group written at
// operation position i with identity byte b: one to lockstep of them, from
// the twelve identities from b on, so that groups repeat identities and
// mix held ones with absent ones.
func trieGroup(i int, b byte) []int {
	rng := simrand.New(uint64(i)<<8 | uint64(b))
	group := make([]int, 1+rng.Intn(lockstep))
	for k := range group {
		group[k] = (int(b) + rng.Intn(12)) % len(trieKeys)
	}
	return group
}

// randomTrieOps draws n uniform operation pairs. runTrieOps reads two of
// its seven operation codes as sets and one as a delete, so the trie grows
// while deletes thin it out.
func randomTrieOps(rng *simrand.Rand, n int) []byte {
	ops := make([]byte, 2*n)
	for i := range ops {
		ops[i] = byte(rng.Intn(256))
	}
	return ops
}

// TestTrieLeafSize guards the leaf layout: a leaf holds its entry by
// value, the entry its chain by pointer, and no key beside the entry,
// which fits in Go's 160-byte size class on 64-bit platforms.
func TestTrieLeafSize(t *testing.T) {
	if n := unsafe.Sizeof(trieLeaf{}); n > 160 {
		t.Errorf("a trie leaf takes %d bytes, want at most 160", n)
	}
}

// TestChangedSincePrunes pins the pruning that deltas and the incremental
// fold rest on: a walk for "after v" skips every subtree whose node stamp
// is at or before v. A 4,096-entry trie stamped 1 gets 16 entries changed
// in a batch stamped 2. Then 8 leaves, each under a different child of the
// root still stamped 1, are restamped 2 without raising a node stamp,
// which no write does: a walk of every leaf finds them, a pruning walk
// never enters their subtrees. changedSince(1) must report exactly the 16
// changed leaves.
func TestChangedSincePrunes(t *testing.T) {
	tr := entryTrie{ver: 1}
	ids := make([]*ReportEntry, 4096)
	for i := range ids {
		ids[i] = rowOf("App", fmt.Sprintf("App/act-%d", i%97), fmt.Sprintf("c.C%d.m", i))
		tr.bind(hashOf(ids[i]), ids[i], nil)
	}
	next := tr.batch()
	next.ver = 2
	changed := map[*trieLeaf]bool{}
	for _, id := range ids[:16] {
		next.writable(hashOf(id), id).Hangs++
		changed[next.leaf(id)] = true
	}
	hidden := 0
	for _, c := range next.root.kids {
		if hidden == 8 {
			break
		}
		if c.ver > 1 {
			continue
		}
		n := c
		for len(n.leaves) == 0 {
			n = n.kids[0]
		}
		n.leaves[0].ver = 2
		hidden++
	}
	if hidden < 8 {
		t.Fatalf("fixture bug: %d children of the root stamped 1, want 8", hidden)
	}
	stamped := 0
	next.each(func(l *trieLeaf) {
		if l.ver > 1 {
			stamped++
		}
	})
	reported := 0
	next.changedSince(1, func(l *trieLeaf) {
		if !changed[l] {
			t.Fatalf("changedSince(1) reported %v from a subtree stamped 1", keyOf(&l.entry))
		}
		reported++
	})
	if stamped != 24 || reported != 16 {
		t.Fatalf("%d leaves stamped 2 (want 24), changedSince(1) reported %d (want 16)", stamped, reported)
	}
}

func TestEntryTrieDifferential(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := simrand.New(seed)
		ops := randomTrieOps(rng, 200+rng.Intn(800))
		for _, colliding := range []bool{false, true} {
			t.Run(fmt.Sprintf("seed=%d/colliding=%v", seed, colliding), func(t *testing.T) {
				runTrieOps(t, ops, colliding)
			})
		}
	}
}

// TestEntryTrieCollisionBucket drives the bucket's insert, replace and
// delete directly, with identities given one chosen hash. Two of them
// join to the same string, so the bucket tells them apart field by field.
func TestEntryTrieCollisionBucket(t *testing.T) {
	const h = 0x0123456789abcdef
	a, b, c, zz := rowOf("A", "x", "a"), rowOf("A\x00x", "", "b"), rowOf("A", "x\x00", "b"), rowOf("A", "x", "zz")
	leaf := func(id *ReportEntry, hangs int, ver uint64) *trieLeaf {
		e := *id
		e.Hangs = hangs
		return &trieLeaf{ver: ver, h: h, entry: e}
	}
	var tr entryTrie
	for i, id := range []*ReportEntry{a, b, c} {
		tr.put(leaf(id, i, 1))
	}
	depth, n := 0, tr.root
	for len(n.kids) == 1 && len(n.leaves) == 0 {
		n, depth = n.kids[0], depth+1
	}
	if want := (trieBucket + trieBits - 1) / trieBits; depth != want || len(n.leaves) != 3 || n.leafMap != 0 {
		t.Fatalf("three colliding identities: bucket of %d at depth %d, want 3 at depth %d", len(n.leaves), depth, want)
	}

	// Replace in place, then in a batch over the handed-out trie.
	tr.put(leaf(b, 10, 2))
	frozen := tr
	next := tr.batch()
	next.put(leaf(b, 20, 3))
	if got := frozen.root.find(0, h, b).entry.Hangs; got != 10 {
		t.Fatalf("a batch wrote through to the handed-out bucket: b=%d", got)
	}
	if got := frozen.root.find(0, h, c).entry.Hangs; got != 2 {
		t.Fatalf("replacing b reached c, whose fields join to the same string: c=%d", got)
	}
	if got := next.root.find(0, h, b); got.entry.Hangs != 20 || got.ver != 3 || next.n != 3 {
		t.Fatalf("batched replace: b=%+v n=%d", got, next.n)
	}
	for n := next.root; ; n = n.kids[0] {
		if n.ver < 3 {
			t.Fatal("the replace did not raise the node stamps above it")
		}
		if len(n.kids) == 0 {
			break
		}
	}

	// Delete: a missing identity is a no-op, and a bucket left with one
	// leaf folds back up to the root.
	if next.remove(h, zz) || !next.remove(h, a) || next.remove(h, a) {
		t.Fatal("bucket delete reported the wrong presence")
	}
	if !next.remove(h, c) || next.n != 1 {
		t.Fatalf("after deleting a and c: n=%d", next.n)
	}
	if len(next.root.kids) != 0 || len(next.root.leaves) != 1 || !next.root.leaves[0].entry.sameID(b) {
		t.Fatal("a single remaining leaf did not fold back into the root")
	}
	if frozen.n != 3 || frozen.root.find(0, h, a) == nil || frozen.root.find(0, h, c) == nil {
		t.Fatal("deletes in a batch reached the handed-out trie")
	}
	if !next.remove(h, b) || next.root != nil || next.n != 0 {
		t.Fatal("deleting the last key did not empty the trie")
	}
}

func FuzzEntryTrie(f *testing.F) {
	rng := simrand.New(7)
	f.Add(randomTrieOps(rng, 64), false)
	f.Add(randomTrieOps(rng, 64), true)
	f.Add([]byte{0, 1, 0, 5, 4, 0, 3, 1, 0, 9, 4, 0, 2, 5, 3, 5}, true)
	// Sets, copies on write, a group over owned leaves, a hand-out and
	// groups over the leaves it shares.
	lockstepOps := []byte{0, 1, 1, 2, 0, 3, 0, 5, 5, 1, 5, 2, 6, 0, 4, 0, 6, 1, 5, 3, 6, 2, 3, 2, 6, 0}
	f.Add(lockstepOps, false)
	f.Add(lockstepOps, true)
	f.Fuzz(func(t *testing.T, ops []byte, colliding bool) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runTrieOps(t, ops, colliding)
	})
}
