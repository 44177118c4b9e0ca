package stack

import "sync"

// SymID is a dense identifier for a class.method frame key. IDs are assigned
// by a Symtab in intern order starting at 1; NoSym (0) means "no symbol
// assigned" and is what zero-valued frames carry. Dense IDs let hot loops
// (the Trace Analyzer's occurrence counting, the registry's attribute
// queries) replace string maps with array indexing.
type SymID uint32

// NoSym is the zero SymID: no symbol interned/assigned.
const NoSym SymID = 0

// SymAttrs is the attribute bit set of a symbol, resolved once at intern
// time by the table's owner (api.Registry for the Android model).
type SymAttrs uint32

const (
	// SymUI marks symbols whose class is UI code (View, Widget, ... —
	// legitimate main-thread work, never a soft hang bug).
	SymUI SymAttrs = 1 << iota
	// SymFramework marks main-loop plumbing frames (Handler.dispatchMessage,
	// Looper.loop) that top every main-thread stack and can never be a root
	// cause.
	SymFramework
	// SymAwait marks synchronization symbols (FutureTask.get,
	// CountDownLatch.await, ...) whose presence at the leaf of a main-thread
	// stack means the dispatch is waiting on asynchronous work: the hang's
	// real root cause lives in the chain being awaited, not in these frames.
	SymAwait
)

// AttrResolver computes the static attribute bits (SymUI, SymFramework) of
// a class.method symbol at intern time. It must be deterministic over the
// life of the table: attributes are resolved exactly once per symbol.
type AttrResolver func(class, method string) SymAttrs

type symKey struct{ class, method string }

// symEntry is the immutable per-symbol record. The canonical key string is
// built once here so ID-to-key resolution never concatenates again.
type symEntry struct {
	key   string // class + "." + method
	attrs SymAttrs
}

// Symtab interns class.method frame keys to dense symbol IDs with attribute
// bits. It is safe for concurrent use: interning takes a write lock, and
// lookups by ID go through an immutable View snapshot so steady-state hot
// loops never touch the lock. One table belongs to one api.Registry; IDs
// are meaningless across tables.
type Symtab struct {
	resolve AttrResolver

	mu      sync.RWMutex
	ids     map[symKey]SymID
	entries []symEntry // index = SymID; entries[0] is the NoSym placeholder
}

// NewSymtab returns an empty table whose static attribute bits are computed
// by resolve (nil means all symbols get zero attributes).
func NewSymtab(resolve AttrResolver) *Symtab {
	if resolve == nil {
		resolve = func(string, string) SymAttrs { return 0 }
	}
	return &Symtab{
		resolve: resolve,
		ids:     map[symKey]SymID{},
		entries: make([]symEntry, 1), // reserve NoSym
	}
}

// Intern returns the ID for class.method, assigning the next dense ID (and
// resolving attributes) on first sight. Looking up an existing symbol does
// not allocate.
func (t *Symtab) Intern(class, method string) SymID {
	k := symKey{class, method}
	t.mu.RLock()
	id, ok := t.ids[k]
	t.mu.RUnlock()
	if ok {
		return id
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[k]; ok {
		return id
	}
	id = SymID(len(t.entries))
	t.entries = append(t.entries, symEntry{
		key:   class + "." + method,
		attrs: t.resolve(class, method),
	})
	t.ids[k] = id
	return id
}

// Key returns the canonical "class.method" string for id ("" for NoSym or
// out-of-range). The string is built at intern time, so this never
// allocates.
func (t *Symtab) Key(id SymID) string { return t.View().Key(id) }

// Attrs returns id's static attribute bits (zero for NoSym/out-of-range).
func (t *Symtab) Attrs(id SymID) SymAttrs { return t.View().Attrs(id) }

// View returns an immutable snapshot for lock-free ID-indexed reads.
// Symbols interned after the snapshot are out of its range — take a fresh
// View after interning. Entries visible in a View are never mutated, so a
// View is safe to use concurrently with interning.
func (t *Symtab) View() View {
	t.mu.RLock()
	v := View{entries: t.entries}
	t.mu.RUnlock()
	return v
}

// View is a point-in-time, lock-free window onto a Symtab's static tables.
// The zero View is valid and empty.
type View struct {
	entries []symEntry
}

// Len returns one past the highest ID visible in the view.
func (v View) Len() int { return len(v.entries) }

// Key returns the canonical key for id, or "" when id is NoSym or beyond
// the view.
func (v View) Key(id SymID) string {
	if int(id) >= len(v.entries) {
		return ""
	}
	return v.entries[id].key
}

// Attrs returns the static attribute bits for id (zero when out of view).
func (v View) Attrs(id SymID) SymAttrs {
	if int(id) >= len(v.entries) {
		return 0
	}
	return v.entries[id].attrs
}
