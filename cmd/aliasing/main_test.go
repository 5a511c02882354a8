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

func runAliasing(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), err
}

func TestThreeCsReport(t *testing.T) {
	out, err := runAliasing(t,
		"-bench", "verilog", "-fn", "gshare", "-entries", "1024", "-hist", "4", "-scale", "0.002")
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, want := range []string{"compulsory", "capacity", "conflict", "DM miss ratio", "FA-LRU miss"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestUnknownIndexFnIsUsageError(t *testing.T) {
	_, err := runAliasing(t, "-bench", "verilog", "-fn", "gspaghetti")
	var usage *cli.UsageError
	if !errors.As(err, &usage) {
		t.Fatalf("unknown fn: got %v, want UsageError", err)
	}
}

func TestMissingInputIsUsageError(t *testing.T) {
	_, err := runAliasing(t, "-fn", "bimodal")
	var usage *cli.UsageError
	if !errors.As(err, &usage) {
		t.Fatalf("missing -bench/-trace: got %v, want UsageError", err)
	}
}

func TestOutputStableOnFixedSeed(t *testing.T) {
	args := []string{"-bench", "nroff", "-fn", "gselect", "-entries", "512", "-hist", "6", "-scale", "0.002"}
	a, err := runAliasing(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runAliasing(t, args...)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("output not byte-stable:\n%q\nvs\n%q", a, b)
	}
}

// TestTraceFileMatchesBench: the three-Cs report over a trace file is
// the report over the generated workload, whichever binary format the
// file is in — the committed legacy varint fixture (verilog at scale
// 0.01) or a columnar file of the same workload.
func TestTraceFileMatchesBench(t *testing.T) {
	branches, err := workload.MaterializeAny("verilog", workload.Config{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	columnar, err := trace.EncodeColumnar(branches)
	if err != nil {
		t.Fatal(err)
	}
	columnarPath := filepath.Join(t.TempDir(), "verilog-0.01.ctrace")
	if err := os.WriteFile(columnarPath, columnar, 0o644); err != nil {
		t.Fatal(err)
	}
	common := []string{"-fn", "gshare", "-entries", "1024", "-hist", "4"}
	want, err := runAliasing(t, append([]string{"-bench", "verilog", "-scale", "0.01"}, common...)...)
	if err != nil {
		t.Fatalf("-bench: %v", err)
	}
	for name, path := range map[string]string{
		"legacy varint": "../../internal/trace/testdata/verilog-0.01.trace",
		"columnar":      columnarPath,
	} {
		got, err := runAliasing(t, append([]string{"-trace", path}, common...)...)
		if err != nil {
			t.Fatalf("%s -trace: %v", name, err)
		}
		if got != want {
			t.Errorf("%s -trace output differs from -bench:\n%s\nvs\n%s", name, got, want)
		}
	}
}
