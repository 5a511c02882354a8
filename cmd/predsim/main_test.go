package main

import (
	"bytes"
	"errors"
	"flag"
	"strings"
	"testing"

	"gskew/internal/cli"
)

func runPredsim(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

func TestRunOnBenchmark(t *testing.T) {
	out, _, err := runPredsim(t,
		"-bench", "verilog", "-pred", "gskewed", "-entries", "512", "-hist", "6", "-scale", "0.002")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"predictor:", "storage bits:", "miss rate:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestMissingInputIsUsageError(t *testing.T) {
	_, _, err := runPredsim(t, "-pred", "gshare")
	var usage *cli.UsageError
	if !errors.As(err, &usage) {
		t.Fatalf("missing -bench/-trace: got %v, want UsageError", err)
	}
}

func TestUnknownPredictorIsUsageError(t *testing.T) {
	_, _, err := runPredsim(t, "-bench", "verilog", "-pred", "oracle")
	var usage *cli.UsageError
	if !errors.As(err, &usage) {
		t.Fatalf("unknown predictor: got %v, want UsageError", err)
	}
}

func TestUnknownPolicyIsUsageError(t *testing.T) {
	_, _, err := runPredsim(t, "-bench", "verilog", "-policy", "middling")
	var usage *cli.UsageError
	if !errors.As(err, &usage) {
		t.Fatalf("unknown policy: got %v, want UsageError", err)
	}
}

func TestHelpIsReturnedAsErrHelp(t *testing.T) {
	_, stderr, err := runPredsim(t, "-h")
	if !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: got %v, want flag.ErrHelp", err)
	}
	if !strings.Contains(stderr, "-bench") {
		t.Errorf("usage text missing from stderr:\n%s", stderr)
	}
}

func TestMissingTraceFileIsRuntimeError(t *testing.T) {
	_, _, err := runPredsim(t, "-trace", "/no/such/file.trace")
	if err == nil {
		t.Fatal("missing trace file accepted")
	}
	var usage *cli.UsageError
	if errors.As(err, &usage) {
		t.Fatalf("missing file misclassified as usage error: %v", err)
	}
}

func TestOutputStableOnFixedSeed(t *testing.T) {
	args := []string{"-bench", "nroff", "-pred", "gshare", "-entries", "512",
		"-hist", "4", "-scale", "0.002", "-seed", "3"}
	a, _, err := runPredsim(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := runPredsim(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("output not byte-stable on a fixed seed:\n%q\nvs\n%q", a, b)
	}
}
