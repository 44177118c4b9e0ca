// Package golden pins rendered artifacts to committed sha256 digests. A
// test hands Check the artifact's bytes and a name; the digest lives in the
// calling package's testdata/golden/<name>.sha256. A mismatch fails the
// test naming the artifact, and
//
//	go test ./path/to/pkg -update
//
// rewrites the digests of the artifacts that package's tests check.
package golden

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden digests instead of checking them")

// Check compares the sha256 of data with the digest committed for name.
func Check(t testing.TB, name string, data []byte) {
	t.Helper()
	sum := sha256.Sum256(data)
	got := hex.EncodeToString(sum[:])
	path := filepath.Join("testdata", "golden", name+".sha256")
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("golden %s: %v (run with -update to create it)", name, err)
	}
	if w := strings.TrimSpace(string(want)); got != w {
		t.Errorf("golden %s: sha256 %s, want %s (%d bytes; run with -update if the change is deliberate)", name, got, w, len(data))
	}
}
