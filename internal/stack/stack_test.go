package stack

import (
	"strings"
	"testing"
	"testing/quick"
)

// The helpers below are test-only stack builders and queries; production
// code reads stacks through Leaf, Depth, Truncate and the frames' Sym IDs.

// Package returns the package portion of the class name ("org.htmlcleaner"
// for "org.htmlcleaner.HtmlCleaner"), or "" if the class has no package.
func (f Frame) Package() string {
	if i := strings.LastIndexByte(f.Class, '.'); i >= 0 {
		return f.Class[:i]
	}
	return ""
}

// matchesKey reports whether f's class.method equals key without building
// the concatenation: key must be f.Class, a '.', then f.Method.
func (f *Frame) matchesKey(key string) bool {
	nc, nm := len(f.Class), len(f.Method)
	if len(key) != nc+1+nm || key[nc] != '.' {
		return false
	}
	return key[:nc] == f.Class && key[nc+1:] == f.Method
}

// Contains reports whether any frame has the given key (class.method).
func (s *Stack) Contains(key string) bool {
	if s == nil {
		return false
	}
	for i := range s.Frames {
		if s.Frames[i].matchesKey(key) {
			return true
		}
	}
	return false
}

// CallerOf returns the frame immediately above the first frame matching key,
// and whether such a caller exists.
func (s *Stack) CallerOf(key string) (Frame, bool) {
	if s == nil {
		return Frame{}, false
	}
	for i := range s.Frames {
		if s.Frames[i].matchesKey(key) && i+1 < len(s.Frames) {
			return s.Frames[i+1], true
		}
	}
	return Frame{}, false
}

// Push returns a new stack with frame added as the new leaf. The receiver is
// not modified.
func (s *Stack) Push(frame Frame) *Stack {
	var base []Frame
	if s != nil {
		base = s.Frames
	}
	frames := make([]Frame, 0, len(base)+1)
	frames = append(frames, frame)
	frames = append(frames, base...)
	return &Stack{Frames: frames}
}

// Concat returns a new stack with inner's frames below... is the leaf side;
// specifically the result is inner.Frames followed by s.Frames, i.e. inner
// becomes the innermost portion. Used to nest a blocking API inside library
// wrapper frames and then inside the app handler frames.
func (s *Stack) Concat(inner *Stack) *Stack {
	var a, b []Frame
	if inner != nil {
		a = inner.Frames
	}
	if s != nil {
		b = s.Frames
	}
	frames := make([]Frame, 0, len(a)+len(b))
	frames = append(frames, a...)
	frames = append(frames, b...)
	return &Stack{Frames: frames}
}

func frame(cls, m string) Frame {
	return Frame{Class: cls, Method: m, File: m + ".java", Line: 1}
}

func TestFrameString(t *testing.T) {
	f := Frame{Class: "org.htmlcleaner.HtmlCleaner", Method: "clean", File: "HtmlCleaner.java", Line: 25}
	want := "org.htmlcleaner.HtmlCleaner.clean(HtmlCleaner.java:25)"
	if got := f.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestFrameKeyIgnoresLine(t *testing.T) {
	a := Frame{Class: "a.B", Method: "m", Line: 1}
	b := Frame{Class: "a.B", Method: "m", Line: 99}
	if a.Key() != b.Key() {
		t.Fatal("Key must ignore line numbers")
	}
}

func TestFramePackage(t *testing.T) {
	if got := frame("android.widget.TextView", "setText").Package(); got != "android.widget" {
		t.Fatalf("Package() = %q", got)
	}
	if got := frame("Plain", "m").Package(); got != "" {
		t.Fatalf("Package() of unpackaged class = %q, want empty", got)
	}
}

func TestLeafAndDepth(t *testing.T) {
	s := New(frame("a.Leaf", "l"), frame("a.Mid", "m"), frame("a.Root", "r"))
	if s.Leaf().Class != "a.Leaf" {
		t.Fatalf("Leaf = %v", s.Leaf())
	}
	if s.Depth() != 3 {
		t.Fatalf("Depth = %d", s.Depth())
	}
	var nilStack *Stack
	if nilStack.Depth() != 0 {
		t.Fatal("nil stack depth must be 0")
	}
	if nilStack.Leaf() != (Frame{}) {
		t.Fatal("nil stack leaf must be zero frame")
	}
}

func TestContains(t *testing.T) {
	s := New(frame("a.Leaf", "l"), frame("a.Mid", "m"))
	if !s.Contains("a.Mid.m") {
		t.Fatal("Contains missed a present frame")
	}
	if s.Contains("a.Other.x") {
		t.Fatal("Contains found an absent frame")
	}
	var nilStack *Stack
	if nilStack.Contains("a.Mid.m") {
		t.Fatal("nil stack must contain nothing")
	}
}

func TestCallerOf(t *testing.T) {
	s := New(frame("lib.API", "get"), frame("app.Repo", "load"), frame("app.UI", "onClick"))
	caller, ok := s.CallerOf("lib.API.get")
	if !ok || caller.Class != "app.Repo" {
		t.Fatalf("CallerOf = %v, %v", caller, ok)
	}
	if _, ok := s.CallerOf("app.UI.onClick"); ok {
		t.Fatal("outermost frame must have no caller")
	}
	if _, ok := s.CallerOf("absent.X.y"); ok {
		t.Fatal("absent key must have no caller")
	}
}

func TestPushImmutability(t *testing.T) {
	base := New(frame("a.Root", "r"))
	pushed := base.Push(frame("a.Leaf", "l"))
	if base.Depth() != 1 {
		t.Fatal("Push mutated receiver")
	}
	if pushed.Depth() != 2 || pushed.Leaf().Class != "a.Leaf" {
		t.Fatalf("pushed = %v", pushed)
	}
	var nilStack *Stack
	single := nilStack.Push(frame("a.X", "x"))
	if single.Depth() != 1 {
		t.Fatal("Push on nil stack failed")
	}
}

func TestConcat(t *testing.T) {
	outer := New(frame("app.Handler", "handle"), frame("android.os.Looper", "loop"))
	inner := New(frame("lib.Deep", "work"), frame("lib.API", "call"))
	full := outer.Concat(inner)
	if full.Depth() != 4 {
		t.Fatalf("Depth = %d, want 4", full.Depth())
	}
	if full.Leaf().Class != "lib.Deep" {
		t.Fatalf("leaf = %v, want lib.Deep", full.Leaf())
	}
	if full.Frames[3].Class != "android.os.Looper" {
		t.Fatalf("outermost = %v", full.Frames[3])
	}
	// Receiver and argument untouched.
	if outer.Depth() != 2 || inner.Depth() != 2 {
		t.Fatal("Concat mutated inputs")
	}
}

func TestStringFormat(t *testing.T) {
	s := New(frame("a.B", "m"))
	if !strings.HasPrefix(s.String(), "  at a.B.m(") {
		t.Fatalf("String() = %q", s.String())
	}
	var nilStack *Stack
	if nilStack.String() != "<empty stack>" {
		t.Fatalf("nil String() = %q", nilStack.String())
	}
}

// Property: Concat depth is additive and preserves frame order.
func TestConcatProperty(t *testing.T) {
	f := func(na, nb uint8) bool {
		a, b := &Stack{}, &Stack{}
		for i := 0; i < int(na%10); i++ {
			a.Frames = append(a.Frames, Frame{Class: "A", Method: string(rune('a' + i))})
		}
		for i := 0; i < int(nb%10); i++ {
			b.Frames = append(b.Frames, Frame{Class: "B", Method: string(rune('a' + i))})
		}
		c := a.Concat(b)
		if c.Depth() != a.Depth()+b.Depth() {
			return false
		}
		for i, fr := range b.Frames {
			if c.Frames[i] != fr {
				return false
			}
		}
		for i, fr := range a.Frames {
			if c.Frames[len(b.Frames)+i] != fr {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTruncate(t *testing.T) {
	s := New(frame("a.Leaf", "l"), frame("a.Mid", "m"), frame("a.Root", "r"))
	cut := s.Truncate(2)
	if cut.Depth() != 2 {
		t.Fatalf("Truncate(2) depth = %d", cut.Depth())
	}
	if cut.Leaf().Class != "a.Leaf" || cut.Frames[1].Class != "a.Mid" {
		t.Fatalf("Truncate kept wrong frames: %v", cut.Frames)
	}
	if s.Depth() != 3 {
		t.Fatal("Truncate mutated the receiver")
	}
	if got := s.Truncate(3); got != s {
		t.Fatal("Truncate covering the whole stack must return the receiver")
	}
	if got := s.Truncate(10); got != s {
		t.Fatal("Truncate beyond depth must return the receiver")
	}
	if got := s.Truncate(0); got != nil {
		t.Fatalf("Truncate(0) = %v, want nil", got)
	}
	var nilStack *Stack
	if got := nilStack.Truncate(2); got != nil {
		t.Fatal("nil stack truncates to nil")
	}
}
