package experiments

import (
	"testing"

	"hangdoctor/internal/golden"
)

// renderAt runs one registry experiment on a fresh context pinned to the
// given worker count and returns its rendered artifact. Each call gets its
// own context: NewContext resets the shared corpus's known-blocking
// database, so runs start from identical state.
func renderAt(t *testing.T, name string, parallel int) string {
	t.Helper()
	ctx := NewContext(11, SmallScale())
	ctx.Parallel = parallel
	res, err := Run(ctx, name)
	if err != nil {
		t.Fatalf("%s at parallel=%d: %v", name, parallel, err)
	}
	return res.Render()
}

// TestRenderDeterministicAcrossParallelism is the engine's core contract:
// for every registry experiment, the rendered artifact at -parallel 1 (the
// inline serial path) is byte-identical to -parallel 8. Work units derive
// their RNG from (seed, unit identity) and merge in unit order, so worker
// scheduling must never leak into the output. The serial artifact is also
// pinned to its committed golden digest, so a change to any experiment's
// output fails here across commits, not only across worker counts.
func TestRenderDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry double sweep; skipped in -short")
	}
	for _, e := range Registry() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			serial := renderAt(t, e.Name, 1)
			golden.Check(t, e.Name+".txt", []byte(serial))
			parallel := renderAt(t, e.Name, 8)
			if serial != parallel {
				t.Errorf("%s renders differently at parallel=1 vs parallel=8:\n--- parallel=1 ---\n%s\n--- parallel=8 ---\n%s",
					e.Name, serial, parallel)
			}
		})
	}
}

// TestTable5ParallelOrderIndependent pins the table5 sweep — the one
// experiment that was already concurrent before the pool existed — to the
// order-independence claim: with 8 workers racing over 114 apps (run under
// -race in CI), repeated merged outputs are identical to each other and to
// the serial path.
func TestTable5ParallelOrderIndependent(t *testing.T) {
	serial := renderAt(t, "table5", 1)
	first := renderAt(t, "table5", 8)
	second := renderAt(t, "table5", 8)
	if first != second {
		t.Fatalf("two parallel=8 runs of table5 disagree:\n--- run 1 ---\n%s\n--- run 2 ---\n%s", first, second)
	}
	if serial != first {
		t.Fatalf("table5 parallel=8 differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, first)
	}
}
