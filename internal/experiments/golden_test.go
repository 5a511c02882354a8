package experiments

// Golden-output regression tests for the deterministic (trace-free)
// experiments. These outputs depend only on closed-form math and fixed
// constructions, so any change is either an intentional improvement
// (update the golden files with -update) or a regression.

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestShootoutGolden pins the storage-equalized shoot-out output at
// the unit-test scale. The workload generators are seeded and the
// result assembly is ordered, so the rendered bundle must be
// byte-identical run to run (and across -jobs / -segments; see
// TestShootoutDeterministicAcrossExecution).
func TestShootoutGolden(t *testing.T) {
	e, err := ByID("ext-shootout")
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run(testCtx())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	path := filepath.Join("testdata", "ext-shootout.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/experiments -run TestShootoutGolden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestShootoutDeterministicAcrossExecution reruns the shoot-out with
// a serial scheduler and with serial cells (Segments 1): the rendered
// output must match the default auto run byte for byte —
// execution strategy is not allowed to leak into results.
func TestShootoutDeterministicAcrossExecution(t *testing.T) {
	render := func(ctx *Context) string {
		t.Helper()
		e, err := ByID("ext-shootout")
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	base := render(testCtx())
	serial := testCtx()
	serial.Sched = NewSched(1)
	if got := render(serial); got != base {
		t.Errorf("serial scheduler changed output:\n--- jobs=1 ---\n%s--- default ---\n%s", got, base)
	}
	serialCells := testCtx()
	serialCells.Segments = 1
	if got := render(serialCells); got != base {
		t.Errorf("serial cells changed output:\n--- segments=1 ---\n%s--- auto ---\n%s", got, base)
	}
}

// TestRealworkGolden pins the real-algorithm validation experiment.
// The experiment itself hard-errors if any measured stream strays
// more than realworkTolerancePP from the analytic oracle, so this
// test is also the acceptance check for measured-vs-analytic
// agreement on the >= 1M-branch streams.
func TestRealworkGolden(t *testing.T) {
	e, err := ByID("ext-realwork")
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Run(testCtx())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	path := filepath.Join("testdata", "ext-realwork.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/experiments -run TestRealworkGolden -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestRealworkDeterministicAcrossExecution reruns ext-realwork with a
// serial scheduler and with serial cells (Segments 1); the rendered
// output must match the default auto run byte for byte.
func TestRealworkDeterministicAcrossExecution(t *testing.T) {
	render := func(ctx *Context) string {
		t.Helper()
		e, err := ByID("ext-realwork")
		if err != nil {
			t.Fatal(err)
		}
		r, err := e.Run(ctx)
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		if err := r.WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}
	base := render(testCtx())
	serial := testCtx()
	serial.Sched = NewSched(1)
	if got := render(serial); got != base {
		t.Errorf("serial scheduler changed output:\n--- jobs=1 ---\n%s--- default ---\n%s", got, base)
	}
	serialCells := testCtx()
	serialCells.Segments = 1
	if got := render(serialCells); got != base {
		t.Errorf("serial cells changed output:\n--- segments=1 ---\n%s--- auto ---\n%s", got, base)
	}
}

func TestGoldenDeterministicExperiments(t *testing.T) {
	for _, id := range []string{"fig3", "fig4", "fig9", "fig10", "ext-model-m"} {
		t.Run(id, func(t *testing.T) {
			e, err := ByID(id)
			if err != nil {
				t.Fatal(err)
			}
			r, err := e.Run(&Context{})
			if err != nil {
				t.Fatal(err)
			}
			var sb strings.Builder
			if err := r.WriteText(&sb); err != nil {
				t.Fatal(err)
			}
			got := sb.String()
			path := filepath.Join("testdata", id+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `go test ./internal/experiments -run TestGolden -update`): %v", err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}
