// Package stack models Java-style call stacks of a simulated Android app:
// ordered frames carrying class, method, file, and line. Hang Doctor's
// Diagnoser works entirely from sampled stacks (§3.4.1 of the paper), so the
// model keeps exactly the information a real stack dump provides — enough to
// compute occurrence factors, recognize UI classes by name, and point the
// developer at file:line.
package stack

import (
	"fmt"
	"strings"
)

// Frame is one stack frame. Frames print like Android stack-trace lines:
// "com.example.Cls.method(File.java:42)".
type Frame struct {
	Class  string // fully qualified class, e.g. "org.htmlcleaner.HtmlCleaner"
	Method string // method name, e.g. "clean"
	File   string // source file, e.g. "HtmlCleaner.java"
	Line   int

	// Sym caches the frame's symbol ID in its registry's Symtab; NoSym (0)
	// means unassigned. App.Finalize assigns it when precomputing dispatch
	// stacks, so every sampled stack carries IDs for free and the Diagnoser
	// counts occurrences without touching strings. It is a cache of the
	// (Class, Method) identity only — externally built frames may leave it
	// zero and consumers intern on the fly.
	Sym SymID
}

// String renders the frame in Android stack-trace format.
func (f Frame) String() string {
	return fmt.Sprintf("%s.%s(%s:%d)", f.Class, f.Method, f.File, f.Line)
}

// Key returns a stable identity for occurrence counting: class.method.
// Line numbers are excluded so that multiple samples inside one long method
// aggregate to the same operation.
func (f Frame) Key() string { return f.Class + "." + f.Method }

// Stack is an immutable call stack. Frames[0] is the leaf (innermost) frame;
// the last frame is the outermost caller (the looper dispatch frame in a
// main-thread stack). Stacks are shared between segments and samples, so
// they must never be mutated after construction.
type Stack struct {
	Frames []Frame
}

// New builds a stack from leaf-first frames.
func New(frames ...Frame) *Stack {
	return &Stack{Frames: frames}
}

// Leaf returns the innermost frame, or a zero Frame for an empty stack.
func (s *Stack) Leaf() Frame {
	if s == nil || len(s.Frames) == 0 {
		return Frame{}
	}
	return s.Frames[0]
}

// Depth returns the number of frames; it is 0 for a nil stack.
func (s *Stack) Depth() int {
	if s == nil {
		return 0
	}
	return len(s.Frames)
}

// Truncate returns a stack keeping only the n innermost (leaf-side) frames
// — the shape of a partial dump cut off under load, which loses the
// outermost caller frames first. It returns the receiver unchanged when n
// covers the whole stack, and nil for n <= 0.
func (s *Stack) Truncate(n int) *Stack {
	if n <= 0 {
		return nil
	}
	if s == nil || n >= len(s.Frames) {
		return s
	}
	return &Stack{Frames: s.Frames[:n]}
}

// Origin is the causal edge from a unit of work back to the user action
// that transitively spawned it. Input-event dispatches carry an Origin with
// Kind "input"; every task an op posts, submits, or delays inherits the
// spawning dispatch's ActionUID with its own Site and Kind, so a sampled
// worker-thread stack can be attributed to the action whose dispatch is
// waiting on it. Origins are comparable values and precomputed at app
// finalization, so tagging a sample is a plain struct copy.
type Origin struct {
	// ActionUID is the injected UID of the originating user action.
	ActionUID string
	// Site is the class.method of the API that created the causal edge (the
	// spawn site: the submit/post call, or the input handler for dispatches).
	Site string
	// Kind classifies the edge: "input" (direct input-event dispatch),
	// "submit" (worker-pool task), "post" (looper self-post), "delay"
	// (PostDelayed timer hop), or "completion" (result delivered back to the
	// main thread).
	Kind string
}

// IsZero reports whether o carries no provenance (an untagged sample).
func (o Origin) IsZero() bool { return o == Origin{} }

// Tagged pairs a sampled stack with its provenance: which thread family it
// was dumped from and which causal chain it belongs to. The causal trace
// analyzer groups samples by (Worker, Origin) to compute per-chain
// occurrence factors.
type Tagged struct {
	Stack *Stack
	// Origin is the causal edge of the work the thread was executing when
	// sampled; zero for unattributed work.
	Origin Origin
	// Worker marks samples dumped from a background worker thread rather
	// than the main thread.
	Worker bool
}

// String renders the stack one frame per line, leaf first, matching the
// layout of an Android ANR trace.
func (s *Stack) String() string {
	if s == nil || len(s.Frames) == 0 {
		return "<empty stack>"
	}
	var b strings.Builder
	for i, f := range s.Frames {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString("  at ")
		b.WriteString(f.String())
	}
	return b.String()
}
