package stack

import (
	"strings"
	"testing"
)

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
