package api

import (
	"testing"
)

func TestPreloadedUIClasses(t *testing.T) {
	r := NewRegistry()
	for _, name := range []string{
		"android.view.View",
		"android.widget.TextView",
		"android.view.LayoutInflater",
	} {
		if !r.IsUIClass(name) {
			t.Errorf("%s should be a UI class", name)
		}
	}
	for _, name := range []string{
		"android.hardware.Camera",
		"android.database.sqlite.SQLiteDatabase",
		"org.htmlcleaner.HtmlCleaner",
	} {
		if r.IsUIClass(name) {
			t.Errorf("%s should not be a UI class", name)
		}
	}
}

func TestUIPackagePrefixRecognition(t *testing.T) {
	r := NewRegistry()
	// A class never registered, but in a UI package: recognized by prefix —
	// the "new UI-API" case of §3.4.1.
	if !r.IsUIClass("android.widget.FancyNewChip") {
		t.Fatal("unregistered android.widget class must be recognized as UI")
	}
	if r.IsUIClass("com.example.widget.Thing") {
		t.Fatal("non-android package must not match UI prefixes")
	}
}

func TestKnownBlockingSnapshot(t *testing.T) {
	r := NewRegistry()
	// Present-day database includes camera.open (documented 2011).
	if !r.IsKnownBlocking("android.hardware.Camera.open") {
		t.Fatal("camera.open should be known blocking in 2017 snapshot")
	}
	// A 2010 database predates the documentation.
	r.SnapshotYear(2010)
	if r.IsKnownBlocking("android.hardware.Camera.open") {
		t.Fatal("camera.open must be unknown to a 2010 offline tool")
	}
	// But SQLite insert was already documented in 2010.
	if !r.IsKnownBlocking("android.database.sqlite.SQLiteDatabase.insert") {
		t.Fatal("SQLite insert should be known in 2010")
	}
	// UI APIs are never blocking.
	if r.IsKnownBlocking("android.widget.TextView.setText") {
		t.Fatal("setText must never be known blocking")
	}
}

func TestAddKnownBlockingFeedback(t *testing.T) {
	r := NewRegistry()
	key := "org.htmlcleaner.HtmlCleaner.clean"
	if r.IsKnownBlocking(key) {
		t.Fatal("clean should start unknown")
	}
	if !r.AddKnownBlocking(key) {
		t.Fatal("first add should report new")
	}
	if r.AddKnownBlocking(key) {
		t.Fatal("second add should report existing")
	}
	if !r.IsKnownBlocking(key) {
		t.Fatal("key missing after add")
	}
	found := false
	for _, k := range r.KnownBlocking() {
		if k == key {
			found = true
		}
	}
	if !found {
		t.Fatal("KnownBlocking() listing missing added key")
	}
}

func TestKnownBlockingSorted(t *testing.T) {
	r := NewRegistry()
	keys := r.KnownBlocking()
	if len(keys) == 0 {
		t.Fatal("expected preloaded blocking APIs")
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] > keys[i] {
			t.Fatalf("KnownBlocking not sorted: %q > %q", keys[i-1], keys[i])
		}
	}
}

func TestDefineClassIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.DefineClass("com.x.Y", false, "com.x", true)
	b := r.DefineClass("com.x.Y", true, "", false) // attributes ignored on re-define
	if a != b {
		t.Fatal("DefineClass must return the existing class")
	}
	if b.UI || !b.ClosedSource {
		t.Fatal("re-definition must not mutate attributes")
	}
}

func TestAPIKeyAndFrame(t *testing.T) {
	r := NewRegistry()
	c := r.DefineClass("org.htmlcleaner.HtmlCleaner", false, "org.htmlcleaner", true)
	a := r.DefineAPI(c, "clean", "", 25, 0)
	if a.Key() != "org.htmlcleaner.HtmlCleaner.clean" {
		t.Fatalf("Key = %q", a.Key())
	}
	f := a.Frame()
	if f.File != "HtmlCleaner.java" {
		t.Fatalf("default file = %q, want HtmlCleaner.java", f.File)
	}
	if f.Line != 25 || f.Class != c.Name || f.Method != "clean" {
		t.Fatalf("Frame = %+v", f)
	}
	got, ok := r.API(a.Key())
	if !ok || got != a {
		t.Fatal("API lookup failed")
	}
}

func TestLookupMissing(t *testing.T) {
	r := NewRegistry()
	if _, ok := r.API("no.such.Class.m"); ok {
		t.Fatal("found missing API")
	}
}
