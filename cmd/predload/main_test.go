package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"gskew/internal/cli"
)

// TestSweepStandalone runs a small sweep against the in-process server
// the subcommand boots when no -target is given: every cell's body must
// be byte-identical across requests, and the second pass must hit the
// store more often than the first.
func TestSweepStandalone(t *testing.T) {
	out := filepath.Join(t.TempDir(), "serve.json")
	var stdout, stderr bytes.Buffer
	if err := run([]string{"sweep", "-cells", "3", "-passes", "2", "-out", out}, &stdout, &stderr); err != nil {
		t.Fatalf("sweep: %v\n%s", err, stderr.String())
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep sweepReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("parsing report: %v\n%s", err, data)
	}
	if !rep.Identical {
		t.Error("bodies_identical = false")
	}
	if rep.Target == "" {
		t.Error("report names no target")
	}
	if len(rep.Passes) != 2 {
		t.Fatalf("report has %d passes, want 2", len(rep.Passes))
	}
	p1, p2 := rep.Passes[0], rep.Passes[1]
	if p2.HitRate <= p1.HitRate {
		t.Errorf("hit rate did not rise between passes: %.3f -> %.3f", p1.HitRate, p2.HitRate)
	}
}

// TestUnknownSubcommandsAreUsageErrors: a missing subcommand, or a
// name that is none (ring and topology among them), is a usage error.
func TestUnknownSubcommandsAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{{"ring"}, {"topology"}, {"no-such-subcommand"}, {}} {
		var stdout, stderr bytes.Buffer
		err := run(args, &stdout, &stderr)
		var usage *cli.UsageError
		if !errors.As(err, &usage) {
			t.Errorf("args %v: got %v, want a usage error", args, err)
		}
	}
}
