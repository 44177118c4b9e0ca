package experiments

import (
	"strings"
	"testing"
)

// TestCausalBeatsMainOnly is the headline claim of the causal extension:
// over the async corpus slice, causal-chain attribution recalls every
// seeded bug and strictly more than the paper's main-thread-only analysis,
// without giving back precision. It holds at both scales, at
// cmd/experiments' default seed.
func TestCausalBeatsMainOnly(t *testing.T) {
	for _, sc := range []struct {
		name  string
		scale Scale
	}{{"small", SmallScale()}, {"full", FullScale()}} {
		t.Run("scale="+sc.name, func(t *testing.T) {
			res, err := RunCausal(NewContext(42, sc.scale))
			if err != nil {
				t.Fatal(err)
			}
			if res.Seeded != 6 {
				t.Fatalf("async slice seeds %d bugs, want 6", res.Seeded)
			}
			if res.CausalFound != res.Seeded {
				t.Errorf("causal mode found %d/%d seeded async bugs", res.CausalFound, res.Seeded)
			}
			if res.CausalFound <= res.MainFound {
				t.Errorf("causal recall %d not strictly above main-thread-only %d", res.CausalFound, res.MainFound)
			}
			if res.CausalFalse > res.MainFalse {
				t.Errorf("causal false attributions %d exceed main-thread-only %d", res.CausalFalse, res.MainFalse)
			}
			render := res.Render()
			for _, want := range []string{"ChatRelay", "CloudNotes", "StreamCast", "TOTAL"} {
				if !strings.Contains(render, want) {
					t.Errorf("render missing %q:\n%s", want, render)
				}
			}
		})
	}
}

// TestCausalControlsStayClean pins the three async-clean controls: neither
// mode may report a bug on them at the default thresholds.
func TestCausalControlsStayClean(t *testing.T) {
	ctx := NewContext(42, SmallScale())
	res, err := RunCausal(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(res.Render(), "\n") {
		for _, control := range []string{"FitSync", "PodGrid", "InkBoard"} {
			if !strings.HasPrefix(strings.TrimSpace(line), control) {
				continue
			}
			fields := strings.Fields(line)
			// App Bugs CausalHit MainHit CausalFP MainFP
			if len(fields) == 6 && (fields[4] != "0" || fields[5] != "0") {
				t.Errorf("control %s reported false positives: %s", control, line)
			}
		}
	}
}
