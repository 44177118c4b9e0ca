// Package api models the Android API surface a soft-hang detector reasons
// about: classes (with their UI-or-not nature and library provenance),
// methods, and the *database of known blocking APIs* that offline detection
// tools such as PerfChecker scan for.
//
// Three properties of this model drive the paper's central argument:
//
//  1. An API has a KnownBlockingSince year. camera.open existed since 2008
//     but was only documented blocking in 2011; an offline tool running with
//     a 2010 database misses it. Hang Doctor feeds newly diagnosed blocking
//     APIs back into the database (AddKnownBlocking), closing the loop.
//  2. A class can live in a closed-source third-party library. Offline
//     tools cannot see *inside* such a library, so a known blocking API
//     called by a library wrapper is invisible to them (the SageMath
//     cupboard.get → insertWithOnConflict case).
//  3. UI classes (android.view.*, android.widget.*, ...) are enumerable by
//     name, which is how the Trace Analyzer separates legitimate UI work
//     from soft hang bugs in collected stacks (§3.4.1).
package api

import (
	"sort"
	"strings"
	"sync"

	"hangdoctor/internal/stack"
)

// Class describes a Java class in the simulated app ecosystem.
type Class struct {
	// Name is the fully qualified class name.
	Name string
	// UI marks classes whose methods must run on the main thread (View,
	// Widget, ...). Calls to UI classes are never soft hang bugs.
	UI bool
	// Library is the owning third-party library ("" for platform or app
	// code), e.g. "org.htmlcleaner".
	Library string
	// ClosedSource marks libraries whose source an offline tool cannot
	// analyze.
	ClosedSource bool
}

// API is one method of a class.
type API struct {
	Class  *Class
	Method string
	File   string
	Line   int
	// KnownBlockingSince is the year the method was first documented as
	// blocking; 0 means it has never been documented blocking.
	KnownBlockingSince int
	// Sym is the API's symbol ID in its registry's symbol table, assigned
	// at DefineAPI time. Frames produced by Frame carry it, so dispatch
	// stacks are born pre-interned.
	Sym stack.SymID

	// key is the canonical identity, built once at DefineAPI so Key never
	// concatenates on hot paths (offline scans walk every op's chain).
	key string
}

// Key returns the canonical identity "class.method".
func (a *API) Key() string {
	if a.key != "" {
		return a.key
	}
	// Hand-built API values (tests) fall back to concatenation.
	return a.Class.Name + "." + a.Method
}

// Frame returns the stack frame a call to this API produces.
func (a *API) Frame() stack.Frame {
	return stack.Frame{Class: a.Class.Name, Method: a.Method, File: a.File, Line: a.Line, Sym: a.Sym}
}

// uiPackagePrefixes are package families whose classes are UI by
// construction; the Trace Analyzer recognizes *new* UI-APIs from these
// prefixes even when the specific class is not in the table (§3.4.1: "Trace
// Analyzer can recognize even new UI-APIs from their class name").
var uiPackagePrefixes = []string{
	"android.view.",
	"android.widget.",
	"android.webkit.",
	"android.animation.",
	"android.transition.",
}

// Registry holds the class/API tables and the mutable known-blocking
// database shared with offline tools. The known-blocking database is
// guarded by a mutex: it is the one piece of state concurrent evaluation
// harnesses share (every app's Hang Doctor feeds it), while the class/API
// tables are immutable once the corpus is built.
//
// Every registry owns a symbol table interning class.method keys to dense
// IDs with attribute bits resolved at intern time (UI class, framework
// plumbing) — the diagnosis pipeline runs entirely on those IDs. The
// string-keyed paths (IsUIClass, IsKnownBlocking, API) remain the boundary
// for external inputs: fleet imports, the offline detector, and tests that
// build frames by hand.
type Registry struct {
	classes map[string]*Class
	apis    map[string]*API
	symtab  *stack.Symtab
	// apisBySym is the dense ID-indexed view of apis; nil slots are symbols
	// that are not registered APIs (handlers, self-developed code,
	// framework frames). Like the maps above it is immutable once the
	// corpus is built.
	apisBySym []*API

	mu sync.RWMutex
	// knownBlocking is keyed by API key. It is the database offline tools
	// scan with, snapshotted to a year and extended at runtime by Hang
	// Doctor's feedback loop.
	knownBlocking map[string]bool
}

// ShippedYear is the year the known-blocking database ships snapshotted to
// — the paper's present day. NewRegistry starts from this snapshot, and
// corpus.Shared resets the database back to it between contexts.
const ShippedYear = 2017

// IsFrameworkClass reports whether a class is main-loop plumbing that tops
// every main-thread stack and can never be a root cause (the Trace
// Analyzer's exclusion rule, §3.4.1).
func IsFrameworkClass(cls string) bool {
	return cls == "android.os.Handler" || cls == "android.os.Looper" ||
		cls == "java.util.concurrent.ThreadPoolExecutor$Worker" ||
		cls == "java.lang.Thread" ||
		strings.HasPrefix(cls, "com.android.internal.os.")
}

// IsAwaitMethod reports whether class.method is a synchronization point
// that parks the calling thread until asynchronous work finishes. A
// main-thread sample leafed at one of these is not itself the root cause —
// the cause lives in whatever chain the thread is waiting on, which is why
// the causal analyzer treats the bit as its escalation trigger (and why the
// main-thread-only baseline, lacking that context, misattributes such hangs
// to the await API itself).
func IsAwaitMethod(cls, method string) bool {
	switch cls {
	case "java.util.concurrent.FutureTask":
		return method == "get"
	case "java.util.concurrent.CountDownLatch":
		return method == "await"
	case "java.lang.Object":
		return method == "wait"
	}
	return false
}

// NewRegistry returns a registry preloaded with the standard platform
// classes and the blocking APIs the paper names, with the known-blocking
// database snapshotted to the present (every API documented blocking by
// now is in it).
func NewRegistry() *Registry {
	r := &Registry{
		classes:       map[string]*Class{},
		apis:          map[string]*API{},
		knownBlocking: map[string]bool{},
	}
	r.symtab = stack.NewSymtab(func(class, method string) stack.SymAttrs {
		var a stack.SymAttrs
		if r.IsUIClass(class) {
			a |= stack.SymUI
		}
		if IsFrameworkClass(class) {
			a |= stack.SymFramework
		}
		if IsAwaitMethod(class, method) {
			a |= stack.SymAwait
		}
		return a
	})
	r.preload()
	r.SnapshotYear(ShippedYear)
	return r
}

// SymtabView returns a lock-free snapshot of the symbol table for
// ID-indexed hot loops; see stack.Symtab.View.
func (r *Registry) SymtabView() stack.View { return r.symtab.View() }

// Intern returns the dense symbol ID for class.method, assigning one (with
// attribute bits) on first sight. UI and framework attributes are resolved
// against the class tables at intern time, so classes must be defined
// before the first frame of that class is interned — corpus construction
// guarantees this by building the registry before finalizing apps.
func (r *Registry) Intern(class, method string) stack.SymID {
	return r.symtab.Intern(class, method)
}

// SymOf returns the frame's symbol ID: the cached one when App.Finalize
// already assigned it, interning the (Class, Method) identity otherwise.
// The frame itself is not mutated — sampled stacks are shared and
// immutable.
func (r *Registry) SymOf(f stack.Frame) stack.SymID {
	if f.Sym != stack.NoSym {
		return f.Sym
	}
	return r.symtab.Intern(f.Class, f.Method)
}

// DefineClass registers (or returns the existing) class with the given
// attributes.
func (r *Registry) DefineClass(name string, ui bool, library string, closedSource bool) *Class {
	if c, ok := r.classes[name]; ok {
		return c
	}
	c := &Class{Name: name, UI: ui, Library: library, ClosedSource: closedSource}
	r.classes[name] = c
	return c
}

// DefineAPI registers a method on a class. file defaults to the class base
// name + ".java" when empty.
func (r *Registry) DefineAPI(class *Class, method, file string, line, knownSince int) *API {
	if file == "" {
		base := class.Name
		if i := strings.LastIndexByte(base, '.'); i >= 0 {
			base = base[i+1:]
		}
		file = base + ".java"
	}
	a := &API{Class: class, Method: method, File: file, Line: line, KnownBlockingSince: knownSince}
	a.Sym = r.symtab.Intern(class.Name, method)
	a.key = r.symtab.Key(a.Sym)
	r.apis[a.key] = a
	for int(a.Sym) >= len(r.apisBySym) {
		r.apisBySym = append(r.apisBySym, nil)
	}
	r.apisBySym[a.Sym] = a
	return a
}

// APIBySym is the ID-indexed fast path of API: it resolves a diagnosed
// symbol to its registered API, if any, without building a key string.
func (r *Registry) APIBySym(id stack.SymID) (*API, bool) {
	if int(id) >= len(r.apisBySym) || r.apisBySym[id] == nil {
		return nil, false
	}
	return r.apisBySym[id], true
}

// IsAwaitSym is the ID-indexed fast path of IsAwaitMethod.
func (r *Registry) IsAwaitSym(id stack.SymID) bool {
	return r.symtab.Attrs(id)&stack.SymAwait != 0
}

// API looks up an API by "class.method" key.
func (r *Registry) API(key string) (*API, bool) {
	a, ok := r.apis[key]
	return a, ok
}

// IsUIClass reports whether className denotes UI code, by table or by
// package family.
func (r *Registry) IsUIClass(className string) bool {
	if c, ok := r.classes[className]; ok && c.UI {
		return true
	}
	for _, p := range uiPackagePrefixes {
		if strings.HasPrefix(className, p) {
			return true
		}
	}
	return false
}

// IsKnownBlocking reports whether the key is in the current known-blocking
// database.
func (r *Registry) IsKnownBlocking(key string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.knownBlocking[key]
}

// AddKnownBlocking inserts key into the database (Hang Doctor's feedback to
// offline tools, Figure 2a). It reports whether the entry was new.
func (r *Registry) AddKnownBlocking(key string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.knownBlocking[key] {
		return false
	}
	r.knownBlocking[key] = true
	return true
}

// KnownBlocking returns the sorted database contents.
func (r *Registry) KnownBlocking() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.knownBlocking))
	for k := range r.knownBlocking {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// SnapshotYear resets the known-blocking database to what an offline tool
// shipped in the given year would contain: every registered API documented
// blocking in or before that year.
func (r *Registry) SnapshotYear(year int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.knownBlocking = map[string]bool{}
	for k, a := range r.apis {
		if a.KnownBlockingSince != 0 && a.KnownBlockingSince <= year {
			r.knownBlocking[k] = true
		}
	}
}

// preload registers the platform classes and APIs the paper mentions.
func (r *Registry) preload() {
	// UI classes (must-run-on-main-thread work; never soft hang bugs).
	view := r.DefineClass("android.view.View", true, "", false)
	inflater := r.DefineClass("android.view.LayoutInflater", true, "", false)
	textView := r.DefineClass("android.widget.TextView", true, "", false)
	listView := r.DefineClass("android.widget.ListView", true, "", false)
	imageView := r.DefineClass("android.widget.ImageView", true, "", false)
	seekBar := r.DefineClass("android.widget.SeekBar", true, "", false)
	orient := r.DefineClass("android.view.OrientationEventListener", true, "", false)
	recycler := r.DefineClass("android.widget.RecyclerView", true, "", false)
	webview := r.DefineClass("android.webkit.WebView", true, "", false)

	r.DefineAPI(view, "requestLayout", "", 18122, 0)
	r.DefineAPI(view, "invalidate", "", 13971, 0)
	r.DefineAPI(view, "measure", "", 19921, 0)
	r.DefineAPI(inflater, "inflate", "", 482, 0)
	r.DefineAPI(textView, "setText", "", 5361, 0)
	r.DefineAPI(listView, "layoutChildren", "", 1666, 0)
	r.DefineAPI(imageView, "setImageBitmap", "", 453, 0)
	r.DefineAPI(seekBar, "<init>", "", 65, 0)
	r.DefineAPI(orient, "enable", "", 107, 0)
	r.DefineAPI(recycler, "onLayout", "", 4110, 0)
	r.DefineAPI(webview, "loadDataWithBaseURL", "", 940, 0)

	// Platform blocking APIs with their documentation history (§2.2: camera
	// open available since 2008, marked blocking only after 2011; prepare,
	// decode, accept available since 2009, marked after 2012).
	camera := r.DefineClass("android.hardware.Camera", false, "", false)
	r.DefineAPI(camera, "open", "", 330, 2011)
	r.DefineAPI(camera, "setParameters", "", 1885, 0)
	mediaPlayer := r.DefineClass("android.media.MediaPlayer", false, "", false)
	r.DefineAPI(mediaPlayer, "prepare", "", 1171, 2012)
	bitmapFactory := r.DefineClass("android.graphics.BitmapFactory", false, "", false)
	r.DefineAPI(bitmapFactory, "decodeFile", "", 391, 2012)
	r.DefineAPI(bitmapFactory, "decodeStream", "", 606, 2012)
	bluetooth := r.DefineClass("android.bluetooth.BluetoothServerSocket", false, "", false)
	r.DefineAPI(bluetooth, "accept", "", 97, 2012)

	// Storage / database blocking APIs (well known long before the paper).
	sqlite := r.DefineClass("android.database.sqlite.SQLiteDatabase", false, "", false)
	r.DefineAPI(sqlite, "insert", "", 1592, 2010)
	r.DefineAPI(sqlite, "query", "", 1287, 2010)
	r.DefineAPI(sqlite, "insertWithOnConflict", "", 1631, 2010)
	r.DefineAPI(sqlite, "execSQL", "", 1764, 2010)
	fis := r.DefineClass("java.io.FileInputStream", false, "", false)
	r.DefineAPI(fis, "read", "", 255, 2009)
	fos := r.DefineClass("java.io.FileOutputStream", false, "", false)
	r.DefineAPI(fos, "write", "", 313, 2009)
	prefs := r.DefineClass("android.content.SharedPreferences$Editor", false, "", false)
	r.DefineAPI(prefs, "commit", "", 230, 2010)

	// Framework plumbing classes, referenced by synthetic stacks.
	r.DefineClass("android.os.Looper", false, "", false)
	r.DefineClass("android.os.Handler", false, "", false)
	r.DefineClass("android.app.Activity", false, "", false)
}
