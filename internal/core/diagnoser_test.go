package core

import (
	"testing"

	"hangdoctor/internal/android/api"
	"hangdoctor/internal/stack"
)

func frames(keys ...string) *stack.Stack {
	var fs []stack.Frame
	for i, k := range keys {
		cls := classOf(k)
		m := k[len(cls)+1:]
		fs = append(fs, stack.Frame{Class: cls, Method: m, File: "F.java", Line: 10 + i})
	}
	return stack.New(fs...)
}

func TestAnalyzeSingleHeavyAPI(t *testing.T) {
	reg := api.NewRegistry()
	var traces []*stack.Stack
	// 60 samples inside clean, 5 in caller code: occurrence 0.92.
	for i := 0; i < 60; i++ {
		traces = append(traces, frames(
			"org.htmlcleaner.HtmlCleaner.clean",
			"com.fsck.k9.HtmlSanitizer.sanitize",
			"app.K9.MainActivity.onClick_OpenEmail",
			"android.os.Handler.dispatchMessage",
			"android.os.Looper.loop",
		))
	}
	for i := 0; i < 5; i++ {
		traces = append(traces, frames(
			"app.K9.MainActivity.onClick_OpenEmail",
			"android.os.Handler.dispatchMessage",
			"android.os.Looper.loop",
		))
	}
	d, ok := AnalyzeTraces(traces, reg, 0.5)
	if !ok {
		t.Fatal("no diagnosis")
	}
	if d.RootCause != "org.htmlcleaner.HtmlCleaner.clean" {
		t.Fatalf("root = %q", d.RootCause)
	}
	if d.Occurrence < 0.9 || d.Occurrence > 0.95 {
		t.Fatalf("occurrence = %v", d.Occurrence)
	}
	if d.IsUI || d.ViaCaller {
		t.Fatalf("diag = %+v", d)
	}
}

func TestAnalyzeUIRootCause(t *testing.T) {
	reg := api.NewRegistry()
	var traces []*stack.Stack
	for i := 0; i < 20; i++ {
		traces = append(traces, frames(
			"android.view.LayoutInflater.inflate",
			"app.X.MainActivity.onClick_Folders",
			"android.os.Looper.loop",
		))
	}
	d, ok := AnalyzeTraces(traces, reg, 0.5)
	if !ok || !d.IsUI {
		t.Fatalf("UI hang misdiagnosed: %+v (ok=%v)", d, ok)
	}
}

func TestAnalyzeSelfDevelopedAggregate(t *testing.T) {
	reg := api.NewRegistry()
	// A heavy loop calling many different light APIs: no single leaf has a
	// high occurrence, but the common caller does.
	var traces []*stack.Stack
	leaves := []string{
		"java.lang.String.format", "java.util.ArrayList.add",
		"java.util.HashMap.put", "org.json.JSONObject.getString",
	}
	for i := 0; i < 40; i++ {
		traces = append(traces, frames(
			leaves[i%len(leaves)],
			"com.app.BackupTask.serializeAll",
			"app.Q.MainActivity.onClick_Backup",
			"android.os.Looper.loop",
		))
	}
	d, ok := AnalyzeTraces(traces, reg, 0.5)
	if !ok {
		t.Fatal("no diagnosis")
	}
	if !d.ViaCaller {
		t.Fatalf("expected caller diagnosis, got %+v", d)
	}
	if d.RootCause != "com.app.BackupTask.serializeAll" {
		t.Fatalf("root = %q", d.RootCause)
	}
	if d.IsUI {
		t.Fatal("self-developed op flagged UI")
	}
}

func TestAnalyzeCallerPrefersClosestToLeaf(t *testing.T) {
	reg := api.NewRegistry()
	var traces []*stack.Stack
	leaves := []string{"a.A.x", "b.B.y", "c.C.z"}
	for i := 0; i < 30; i++ {
		traces = append(traces, frames(
			leaves[i%3],
			"com.app.Worker.inner", // closest common caller
			"com.app.Worker.outer",
			"android.os.Looper.loop",
		))
	}
	d, _ := AnalyzeTraces(traces, reg, 0.5)
	if d.RootCause != "com.app.Worker.inner" {
		t.Fatalf("root = %q, want the innermost common caller", d.RootCause)
	}
}

func TestAnalyzeFrameworkNeverRoot(t *testing.T) {
	reg := api.NewRegistry()
	var traces []*stack.Stack
	leaves := []string{"a.A.x", "b.B.y", "c.C.z", "d.D.w"}
	for i := 0; i < 40; i++ {
		// No common app caller at all: only framework frames above.
		traces = append(traces, frames(
			leaves[i%4],
			"android.os.Handler.dispatchMessage",
			"android.os.Looper.loop",
		))
	}
	d, ok := AnalyzeTraces(traces, reg, 0.5)
	if !ok {
		t.Fatal("no diagnosis")
	}
	if cls := classOf(d.RootCause); cls == "android.os.Handler" || cls == "android.os.Looper" {
		t.Fatalf("framework frame chosen as root: %q", d.RootCause)
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	reg := api.NewRegistry()
	if _, ok := AnalyzeTraces(nil, reg, 0.5); ok {
		t.Fatal("empty trace set produced a diagnosis")
	}
	if _, ok := AnalyzeTraces([]*stack.Stack{{}}, reg, 0.5); ok {
		t.Fatal("zero-depth traces produced a diagnosis")
	}
}

func TestStateMachineLegalEdges(t *testing.T) {
	r := &actionRecord{uid: "x", state: Uncategorized}
	r.transition(Suspicious)
	r.transition(HangBug)
	if r.state != HangBug {
		t.Fatalf("state = %v", r.state)
	}
	r2 := &actionRecord{uid: "y", state: Uncategorized}
	r2.transition(Normal)
	r2.transition(Uncategorized)
	r2.transition(Suspicious)
	r2.transition(Normal)
	if r2.state != Normal {
		t.Fatalf("state = %v", r2.state)
	}
}

// TestTransitionAllocs: a legal transition reads the one Figure 3 edge
// table and allocates nothing.
func TestTransitionAllocs(t *testing.T) {
	r := &actionRecord{uid: "x", state: Uncategorized}
	allocs := testing.AllocsPerRun(100, func() {
		r.state = Uncategorized
		r.transition(Suspicious)
		r.transition(HangBug)
	})
	if allocs != 0 {
		t.Fatalf("a legal transition allocates %v times, want 0", allocs)
	}
}

func TestStateMachineIllegalEdgePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	r := &actionRecord{uid: "x", state: Normal}
	r.transition(HangBug)
}
