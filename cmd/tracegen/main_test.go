package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gskew/internal/cli"
	"gskew/internal/trace"
	"gskew/internal/workload"
)

func runTracegen(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

func TestMissingBenchIsUsageError(t *testing.T) {
	_, _, err := runTracegen(t)
	var usage *cli.UsageError
	if !errors.As(err, &usage) {
		t.Fatalf("missing -bench: got %v, want UsageError", err)
	}
}

// TestUnknownFormatIsUsageError: any format but columnar and text is a
// usage error, the retired varint "binary" among them.
func TestUnknownFormatIsUsageError(t *testing.T) {
	for _, format := range []string{"yaml", "binary"} {
		_, _, err := runTracegen(t, "-bench", "verilog", "-scale", "0.001", "-format", format)
		var usage *cli.UsageError
		if !errors.As(err, &usage) {
			t.Fatalf("format %q: got %v, want UsageError", format, err)
		}
	}
}

func TestStatsMode(t *testing.T) {
	out, _, err := runTracegen(t, "-bench", "nroff", "-scale", "0.002", "-stats")
	if err != nil {
		t.Fatalf("-stats: %v", err)
	}
	for _, want := range []string{"dynamic conditional", "taken ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
}

// TestBinaryToStdoutRoundTrips: the default output is a columnar trace
// that decodes to exactly the generated workload.
func TestBinaryToStdoutRoundTrips(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-bench", "verilog", "-scale", "0.001"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(stderr.String(), "wrote") {
		t.Errorf("event count missing from stderr: %q", stderr.String())
	}
	if !trace.IsColumnar(stdout.Bytes()) {
		t.Fatal("stdout does not open with the columnar header")
	}
	got, err := trace.DecodeBytes(stdout.Bytes())
	if err != nil {
		t.Fatalf("stdout is not a binary trace: %v", err)
	}
	want, err := workload.MaterializeAny("verilog", workload.Config{Scale: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || trace.HashBranches(got) != trace.HashBranches(want) {
		t.Errorf("stdout decodes to %d records, want the %d generated ones", len(got), len(want))
	}
}

func TestTextFileOutputStable(t *testing.T) {
	write := func(name string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		if _, _, err := runTracegen(t,
			"-bench", "nroff", "-scale", "0.001", "-seed", "5", "-format", "text", "-o", path); err != nil {
			t.Fatalf("run: %v", err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	a, b := write("a.txt"), write("b.txt")
	if a == "" || a != b {
		t.Errorf("text trace not byte-stable on a fixed seed (lens %d, %d)", len(a), len(b))
	}
}
