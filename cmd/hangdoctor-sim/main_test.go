package main

import (
	"bytes"
	"testing"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/core"
	"hangdoctor/internal/corpus"
	"hangdoctor/internal/golden"
)

// TestRunGolden pins the command's stdout for the Table-5 reference app and
// the causal-async app: detection counts, dashboard, Hang Bug Report, state
// transitions and offline findings.
func TestRunGolden(t *testing.T) {
	for _, name := range []string{"K9-Mail", "NewsBurst"} {
		t.Run(name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(&out, []string{"-app", name, "-transitions", "-offline"}); err != nil {
				t.Fatal(err)
			}
			golden.Check(t, name+".txt", out.Bytes())
		})
	}
}

func TestBuildDetector(t *testing.T) {
	c := corpus.Build()
	a := c.MustApp("K9-Mail")
	trace := corpus.Trace(a, 42, 60)
	for _, name := range []string{"hd", "ti", "utl", "uth", "utl+ti", "uth+ti"} {
		det, err := buildDetector(name, a, app.LGV10(), 42, trace)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if det == nil {
			t.Fatalf("%s: nil detector", name)
		}
	}
	if _, err := buildDetector("nope", a, app.LGV10(), 42, trace); err == nil {
		t.Fatal("unknown detector accepted")
	}
	// hd resolves to the real Doctor.
	det, _ := buildDetector("hd", a, app.LGV10(), 42, trace)
	if _, ok := det.(*core.Doctor); !ok {
		t.Fatalf("hd detector has type %T", det)
	}
}
