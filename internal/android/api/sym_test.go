package api

import (
	"testing"

	"hangdoctor/internal/stack"
)

func TestInternAssignsAttrs(t *testing.T) {
	r := NewRegistry()
	ui := r.Intern("android.widget.TextView", "setText")
	fw := r.Intern("android.os.Looper", "loop")
	plain := r.Intern("org.htmlcleaner.HtmlCleaner", "clean")
	v := r.SymtabView()
	if v.Attrs(ui)&stack.SymUI == 0 {
		t.Fatal("UI attribute missing on interned UI symbol")
	}
	if v.Attrs(fw)&stack.SymFramework == 0 {
		t.Fatal("framework attribute missing")
	}
	if v.Attrs(plain)&(stack.SymUI|stack.SymFramework) != 0 {
		t.Fatal("plain symbol grew attributes")
	}
	// ID and string paths must agree.
	if (v.Attrs(ui)&stack.SymUI != 0) != r.IsUIClass("android.widget.TextView") {
		t.Fatal("SymUI disagrees with IsUIClass")
	}
}

func TestSymOfPrefersCachedID(t *testing.T) {
	r := NewRegistry()
	id := r.Intern("a.B", "m")
	cached := stack.Frame{Class: "other.C", Method: "x", Sym: id}
	if got := r.SymOf(cached); got != id {
		t.Fatalf("SymOf ignored the cached ID: %d != %d", got, id)
	}
	// Uncached frames intern on the fly without mutating the frame.
	f := stack.Frame{Class: "p.Q", Method: "r"}
	got := r.SymOf(f)
	if got == stack.NoSym {
		t.Fatal("SymOf failed to intern")
	}
	if f.Sym != stack.NoSym {
		t.Fatal("SymOf mutated its argument")
	}
	if again := r.SymOf(f); again != got {
		t.Fatal("SymOf not stable")
	}
}

func TestAPIBySym(t *testing.T) {
	r := NewRegistry()
	c := r.DefineClass("org.htmlcleaner.HtmlCleaner", false, "org.htmlcleaner", true)
	a := r.DefineAPI(c, "clean", "", 25, 0)
	if a.Sym == stack.NoSym {
		t.Fatal("DefineAPI left Sym unassigned")
	}
	got, ok := r.APIBySym(a.Sym)
	if !ok || got != a {
		t.Fatalf("APIBySym = %v, %v", got, ok)
	}
	// A symbol that is not an API resolves to nothing.
	plain := r.Intern("com.app.M", "helper")
	if _, ok := r.APIBySym(plain); ok {
		t.Fatal("non-API symbol resolved to an API")
	}
	if _, ok := r.APIBySym(stack.NoSym); ok {
		t.Fatal("NoSym resolved to an API")
	}
	// The API's frame carries the cached symbol.
	if f := a.Frame(); f.Sym != a.Sym {
		t.Fatalf("Frame.Sym = %d, want %d", f.Sym, a.Sym)
	}
}
