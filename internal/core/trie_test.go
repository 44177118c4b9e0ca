package core

// trie_test.go checks the entry trie against a Go map. Random sequences of
// sets, in-place merges and deletes run twice at once: in place on a trie
// that is never handed out, and in batches on a chain of tries that are
// handed out one after another. Every handed-out trie is re-checked
// against its map copy at the end, after all later batches ran. Each
// sequence runs with the real key hash and with hashes forced to share
// long prefixes and to collide in full, which drives the collision
// buckets at the bottom.

import (
	"fmt"
	"maps"
	"math/bits"
	"testing"

	"hangdoctor/internal/simrand"
)

// trieKeys is the key space the operation streams draw from.
var trieKeys = func() []string {
	keys := make([]string, 48)
	for i := range keys {
		keys[i] = fmt.Sprintf("App\x00App/act-%02d\x00c.C%02d.m", i%5, i)
	}
	return keys
}()

// keyIndex returns key's index in trieKeys.
func keyIndex(key string) int {
	for i, k := range trieKeys {
		if k == key {
			return i
		}
	}
	panic("unknown key " + key)
}

// collidingHash gives a third of the keys their real hash. The rest share
// every bit but the top two, so they chain down to the last level, and
// keys equal modulo 4 collide in full.
func collidingHash(i int) uint64 {
	if i%3 == 0 {
		return keyHash(trieKeys[i])
	}
	return 0xa5a5a5a5a5a5a5a5 ^ uint64(i%4)<<62
}

type modelLeaf struct {
	e     *ReportEntry
	ver   uint64
	hangs int // e.Hangs when the model was last told of a write to it
}

// runTrieOps decodes ops two bytes at a time (an operation and a key) and
// checks every trie it built against the map model. The committed inputs
// under testdata/fuzz/FuzzEntryTrie spell operations 0–4 as the bytes 0–4,
// which decode the same for any operation count above four; renumbering
// those operations changes what the inputs test.
func runTrieOps(t *testing.T, ops []byte, colliding bool) {
	t.Helper()
	hash := func(i int) uint64 { return keyHash(trieKeys[i]) }
	if colliding {
		hash = collidingHash
	}
	type handedOut struct {
		tr    entryTrie
		model map[string]modelLeaf
	}
	var (
		live, cur    entryTrie // in place; batched
		liveModel    = map[string]modelLeaf{}
		model        = map[string]modelLeaf{}
		handed       []handedOut
		ver          = uint64(1)
		writeThrough = func(tr *entryTrie, m map[string]modelLeaf, op int, key string, h uint64) {
			was, ok := m[key]
			e := tr.writable(h, key)
			switch {
			case (e != nil) != ok:
				t.Fatalf("op %d: writable(%q) = %v, key held: %v", op, key, e, ok)
			case e == nil:
				return
			case e.Hangs != was.hangs:
				t.Fatalf("op %d: writable(%q) holds %d hangs, want %d", op, key, e.Hangs, was.hangs)
			}
			e.Hangs++
			m[key] = modelLeaf{e, tr.ver, e.Hangs}
		}
	)
	live.ver, cur.ver = ver, ver
	for i := 0; i+1 < len(ops); i += 2 {
		k := int(ops[i+1]) % len(trieKeys)
		key, h := trieKeys[k], hash(k)
		switch ops[i] % 6 {
		case 0, 1:
			leaf := &trieLeaf{ver: ver, h: h, key: key, e: &ReportEntry{Hangs: i}}
			live.put(leaf)
			cur.put(leaf)
			model[key] = modelLeaf{leaf.e, ver, i}
			liveModel[key] = model[key]
		case 2:
			// Rebinding what a key already holds must neither change nor
			// copy anything.
			if l := cur.root.find(0, h, key); l != nil {
				root, same := cur.root, *l
				cur.put(&same)
				if cur.root != root {
					t.Fatalf("op %d: rebinding %q to its own entry copied the root", i, key)
				}
			}
		case 3:
			_, ok := model[key]
			if got := live.remove(h, key); got != ok {
				t.Fatalf("op %d: in-place remove(%q) = %v, want %v", i, key, got, ok)
			}
			if got := cur.remove(h, key); got != ok {
				t.Fatalf("op %d: batched remove(%q) = %v, want %v", i, key, got, ok)
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
			writeThrough(&live, liveModel, i, key, h)
			writeThrough(&cur, model, i, key, h)
		}
	}
	checkTrie(t, "in place", &live, liveModel, hash)
	checkTrie(t, "batched", &cur, model, hash)
	for i := range handed {
		checkTrie(t, fmt.Sprintf("handed out #%d", i), &handed[i].tr, handed[i].model, hash)
	}

	// The stamped walk yields exactly the keys stamped after v.
	for v := uint64(0); v <= ver; v++ {
		got := map[string]bool{}
		cur.changedSince(v, func(l *trieLeaf) { got[l.key] = true })
		for key, l := range model {
			if got[key] != (l.ver > v) {
				t.Fatalf("changedSince(%d): %q (stamped %d) reported=%v", v, key, l.ver, got[key])
			}
		}
		if len(got) > len(model) {
			t.Fatalf("changedSince(%d) reported keys the trie does not hold", v)
		}
	}

	// diffLeaves between two versions reports every leaf the later one
	// binds differently, and nothing it does not hold.
	versions := append(handed, handedOut{cur, model})
	for i := range versions {
		var prev *trieNode
		if i > 0 {
			prev = versions[i-1].tr.root
		}
		next := versions[i]
		got := map[string]bool{}
		diffLeaves(prev, next.tr.root, 0, func(l *trieLeaf) {
			if next.model[l.key].e != l.e {
				t.Fatalf("diffLeaves reported %q, which version %d does not bind to that leaf", l.key, i)
			}
			got[l.key] = true
		})
		for key, l := range next.model {
			var was *trieLeaf
			if prev != nil {
				was = prev.find(0, hash(keyIndex(key)), key)
			}
			if (was == nil || was.e != l.e) && !got[key] {
				t.Fatalf("diffLeaves missed %q, changed in version %d", key, i)
			}
		}
	}

	// A deep copy has the same keys, cloned entries and stamp 0.
	cp := cur.deepCopy()
	cloned := map[string]modelLeaf{}
	cp.each(func(c *trieLeaf) {
		if l := model[c.key]; l.e == nil || c.e == l.e || c.e.Hangs != l.e.Hangs {
			t.Fatalf("deepCopy: %q holds %+v, want a clone of %+v", c.key, c.e, l.e)
		}
		cloned[c.key] = modelLeaf{c.e, 0, c.e.Hangs}
	})
	checkTrie(t, "deep copy", &cp, cloned, hash)
}

// checkTrie compares tr with model and checks its shape: bitmaps match
// slot counts, every leaf sits on its hash's path, node stamps cover
// their subtrees, no node below the root holds a single leaf, and buckets
// appear only once the hash is used up.
func checkTrie(t *testing.T, name string, tr *entryTrie, model map[string]modelLeaf, hash func(int) uint64) {
	t.Helper()
	if tr.n != len(model) {
		t.Fatalf("%s: n=%d, model holds %d", name, tr.n, len(model))
	}
	for k, key := range trieKeys {
		s := tr.root.find(0, hash(k), key)
		l, ok := model[key]
		switch {
		case !ok && s != nil:
			t.Fatalf("%s: holds deleted or never-set key %q", name, key)
		case ok && s == nil:
			t.Fatalf("%s: lost key %q", name, key)
		case ok && (s.e != l.e || s.ver != l.ver || s.e.Hangs != l.hangs):
			t.Fatalf("%s: %q holds (%p, v%d, %d hangs), want (%p, v%d, %d hangs)", name, key, s.e, s.ver, s.e.Hangs, l.e, l.ver, l.hangs)
		}
	}
	seen := 0
	tr.each(func(l *trieLeaf) {
		seen++
		if model[l.key].e != l.e {
			t.Fatalf("%s: each visited %q with the wrong entry", name, l.key)
		}
	})
	if seen != len(model) {
		t.Fatalf("%s: each visited %d entries, want %d", name, seen, len(model))
	}
	if tr.root != nil && len(tr.root.slots) == 0 {
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
			for _, s := range n.slots {
				if s.child != nil || s.leaf.h != n.slots[0].leaf.h {
					t.Fatalf("%s: collision bucket holds a branch or differing hashes", name)
				}
				newest = max(newest, s.leaf.ver)
			}
			return
		}
		if bits.OnesCount32(n.bitmap) != len(n.slots) {
			t.Fatalf("%s: bitmap %032b for %d slots", name, n.bitmap, len(n.slots))
		}
		if shift > 0 && len(n.slots) == 1 && n.slots[0].child == nil {
			t.Fatalf("%s: a node below the root holds a single leaf", name)
		}
		i := 0
		for p := uint64(0); p <= trieMask; p++ {
			if n.bitmap&(1<<p) == 0 {
				continue
			}
			s := n.slots[i]
			i++
			path := prefix | p<<shift
			if s.child == nil {
				if s.leaf.h&(1<<(shift+trieBits)-1) != path&(1<<(shift+trieBits)-1) {
					t.Fatalf("%s: leaf %q off its hash path", name, s.leaf.key)
				}
				newest = max(newest, s.leaf.ver)
				continue
			}
			walk(s.child, shift+trieBits, path)
			newest = max(newest, s.child.ver)
		}
	}
	if tr.root != nil {
		walk(tr.root, 0, 0)
	}
}

// randomTrieOps draws n uniform operation pairs. runTrieOps reads two of
// its six operation codes as sets and one as a delete, so the trie grows
// while deletes thin it out.
func randomTrieOps(rng *simrand.Rand, n int) []byte {
	ops := make([]byte, 2*n)
	for i := range ops {
		ops[i] = byte(rng.Intn(256))
	}
	return ops
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
// delete directly, with keys given one chosen hash.
func TestEntryTrieCollisionBucket(t *testing.T) {
	const h = 0x0123456789abcdef
	leaf := func(key string, hangs int, ver uint64) *trieLeaf {
		return &trieLeaf{ver: ver, h: h, key: key, e: &ReportEntry{Hangs: hangs}}
	}
	var tr entryTrie
	for i, key := range []string{"a", "b", "c"} {
		tr.put(leaf(key, i, 1))
	}
	depth, n := 0, tr.root
	for len(n.slots) == 1 && n.slots[0].child != nil {
		n, depth = n.slots[0].child, depth+1
	}
	if want := (trieBucket + trieBits - 1) / trieBits; depth != want || len(n.slots) != 3 || n.bitmap != 0 {
		t.Fatalf("three colliding keys: bucket of %d at depth %d, want 3 at depth %d", len(n.slots), depth, want)
	}

	// Replace in place, then in a batch over the handed-out trie.
	tr.put(leaf("b", 10, 2))
	frozen := tr
	next := tr.batch()
	next.put(leaf("b", 20, 3))
	if got := frozen.root.find(0, h, "b").e.Hangs; got != 10 {
		t.Fatalf("a batch wrote through to the handed-out bucket: b=%d", got)
	}
	if got := next.root.find(0, h, "b"); got.e.Hangs != 20 || got.ver != 3 || next.n != 3 {
		t.Fatalf("batched replace: b=%+v n=%d", got, next.n)
	}
	for n := next.root; n != nil; n = n.slots[0].child {
		if n.ver < 3 {
			t.Fatal("the replace did not raise the node stamps above it")
		}
	}

	// Delete: a missing key is a no-op, and a bucket left with one leaf
	// folds back up to the root.
	if next.remove(h, "zz") || !next.remove(h, "a") || next.remove(h, "a") {
		t.Fatal("bucket delete reported the wrong presence")
	}
	if !next.remove(h, "c") || next.n != 1 {
		t.Fatalf("after deleting a and c: n=%d", next.n)
	}
	if len(next.root.slots) != 1 || next.root.slots[0].child != nil || next.root.slots[0].leaf.key != "b" {
		t.Fatal("a single remaining leaf did not fold back into the root")
	}
	if frozen.n != 3 || frozen.root.find(0, h, "a") == nil || frozen.root.find(0, h, "c") == nil {
		t.Fatal("deletes in a batch reached the handed-out trie")
	}
	if !next.remove(h, "b") || next.root != nil || next.n != 0 {
		t.Fatal("deleting the last key did not empty the trie")
	}
}

func FuzzEntryTrie(f *testing.F) {
	rng := simrand.New(7)
	f.Add(randomTrieOps(rng, 64), false)
	f.Add(randomTrieOps(rng, 64), true)
	f.Add([]byte{0, 1, 0, 5, 4, 0, 3, 1, 0, 9, 4, 0, 2, 5, 3, 5}, true)
	f.Fuzz(func(t *testing.T, ops []byte, colliding bool) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		runTrieOps(t, ops, colliding)
	})
}
