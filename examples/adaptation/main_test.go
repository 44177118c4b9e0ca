package main

import (
	"bytes"
	"testing"

	"hangdoctor/internal/golden"
)

// TestRunGolden pins the example's output.
func TestRunGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "output.txt", out.Bytes())
}
