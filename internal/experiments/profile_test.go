package experiments

import (
	"os"
	"strings"
	"testing"

	"gskew/internal/obs"
)

// outputSection returns experiment id's rendered result from a
// cmd/experiments -all output: the lines after its "== id: ... =="
// header up to the blank line before the next header.
func outputSection(t *testing.T, all, id string) string {
	t.Helper()
	start := strings.Index(all, "== "+id+": ")
	if start < 0 {
		t.Fatalf("experiments_output.txt has no %s section", id)
	}
	body := all[start:]
	body = body[strings.Index(body, "\n")+1:]
	if end := strings.Index(body, "\n== "); end >= 0 {
		body = body[:end]
	}
	return strings.TrimSuffix(body, "\n") + "\n"
}

// TestSubstreamProfileBuiltOnce runs the three experiments that share
// the 4-bit substream profile (fig1, ext-opt, fig11) concurrently on
// one default-scale Context: each benchmark's profile is built exactly
// once, however the three race for it, and each rendered result equals
// its section of the committed experiments_output.txt.
func TestSubstreamProfileBuiltOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("default-scale experiments; skipped in -short")
	}
	want, err := os.ReadFile("../../experiments_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"fig1", "ext-opt", "fig11"}
	exps := make([]Experiment, len(ids))
	for i, id := range ids {
		if exps[i], err = ByID(id); err != nil {
			t.Fatal(err)
		}
	}
	obs.Enable()
	defer obs.Disable()
	before := mProfileBuilds.Value()
	ctx := &Context{Sched: NewSched(4)}
	results, err := RunAll(ctx, exps)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := mProfileBuilds.Value()-before, int64(len(ctx.BenchmarkNames())); got != want {
		t.Errorf("%d substream profiles built, want %d (one per benchmark)", got, want)
	}
	if len(ctx.profiles) != len(ctx.BenchmarkNames()) {
		t.Errorf("memo holds %d profiles, want %d", len(ctx.profiles), len(ctx.BenchmarkNames()))
	}
	for k := range ctx.profiles {
		if k.hist != 4 {
			t.Errorf("memo holds a %d-bit profile; only the shared 4-bit one belongs there", k.hist)
		}
	}
	for i, id := range ids {
		var sb strings.Builder
		if err := results[i].WriteText(&sb); err != nil {
			t.Fatal(err)
		}
		if got, want := sb.String(), outputSection(t, string(want), id); got != want {
			t.Errorf("%s differs from experiments_output.txt:\n--- got ---\n%s\n--- want ---\n%s", id, got, want)
		}
	}
}
