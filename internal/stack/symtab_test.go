package stack

import (
	"fmt"
	"testing"
)

func testResolver(class, method string) SymAttrs {
	var a SymAttrs
	if class == "android.view.View" {
		a |= SymUI
	}
	if class == "android.os.Looper" {
		a |= SymFramework
	}
	return a
}

func TestSymtabInternIdempotent(t *testing.T) {
	st := NewSymtab(testResolver)
	a := st.Intern("a.B", "m")
	b := st.Intern("a.B", "n")
	if a == NoSym || b == NoSym {
		t.Fatal("assigned IDs must not be NoSym")
	}
	if a == b {
		t.Fatal("distinct symbols share an ID")
	}
	if again := st.Intern("a.B", "m"); again != a {
		t.Fatalf("re-intern = %d, want %d", again, a)
	}
	if st.View().Len() != 3 { // NoSym placeholder + 2 symbols
		t.Fatalf("Len = %d, want 3", st.View().Len())
	}
	if k := st.Key(a); k != "a.B.m" {
		t.Fatalf("Key = %q", k)
	}
	if k := st.Key(NoSym); k != "" {
		t.Fatalf("Key(NoSym) = %q, want empty", k)
	}
}

func TestSymtabAttrsResolvedOnce(t *testing.T) {
	st := NewSymtab(testResolver)
	ui := st.Intern("android.view.View", "draw")
	fw := st.Intern("android.os.Looper", "loop")
	plain := st.Intern("com.app.X", "y")
	if st.Attrs(ui)&SymUI == 0 {
		t.Fatal("UI bit missing")
	}
	if st.Attrs(fw)&SymFramework == 0 {
		t.Fatal("framework bit missing")
	}
	if st.Attrs(plain) != 0 {
		t.Fatalf("plain symbol attrs = %v", st.Attrs(plain))
	}
	if st.Attrs(NoSym) != 0 {
		t.Fatal("NoSym must carry no attributes")
	}
}

func TestSymtabViewSnapshot(t *testing.T) {
	st := NewSymtab(testResolver)
	a := st.Intern("a.A", "x")
	v := st.View()
	if v.Len() != 2 || v.Key(a) != "a.A.x" {
		t.Fatalf("view = len %d key %q", v.Len(), v.Key(a))
	}
	// Symbols interned after the snapshot are out of range for it.
	b := st.Intern("b.B", "y")
	if int(b) < v.Len() {
		t.Fatal("new ID inside stale view range")
	}
	if v.Key(b) != "" || v.Attrs(b) != 0 {
		t.Fatal("stale view resolved a newer symbol")
	}
	if st.View().Key(b) != "b.B.y" {
		t.Fatal("fresh view missed the new symbol")
	}
}

func TestSymtabConcurrentIntern(t *testing.T) {
	st := NewSymtab(nil)
	done := make(chan map[string]SymID, 4)
	for g := 0; g < 4; g++ {
		go func() {
			got := map[string]SymID{}
			for i := 0; i < 200; i++ {
				cls := fmt.Sprintf("p.C%d", i%50)
				got[cls] = st.Intern(cls, "m")
			}
			done <- got
		}()
	}
	ref := <-done
	for g := 1; g < 4; g++ {
		other := <-done
		for cls, id := range ref {
			if other[cls] != id {
				t.Fatalf("goroutines disagree on %s: %d vs %d", cls, id, other[cls])
			}
		}
	}
	if st.View().Len() != 51 { // placeholder + 50 classes
		t.Fatalf("Len = %d, want 51", st.View().Len())
	}
}
