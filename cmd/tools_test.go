// Package cmd_test integration-tests the command-line tools end to
// end: each binary is built once with `go build` and exercised against
// a small workload, checking output contents and exit codes.
package cmd_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "gskew-tools-*")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	binDir = dir
	// Build every tool once.
	for _, tool := range []string{"experiments", "predsim", "aliasing", "tracegen", "calibrate", "report", "predserved"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, tool), "./"+tool)
		cmd.Dir = "."
		if out, err := cmd.CombinedOutput(); err != nil {
			panic("building " + tool + ": " + err.Error() + "\n" + string(out))
		}
	}
	os.Exit(m.Run())
}

func run(t *testing.T, tool string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(filepath.Join(binDir, tool), args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestExperimentsList(t *testing.T) {
	out, err := run(t, "experiments", "-list")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"table1", "fig12", "ext-ev8", "ablation-policy"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %q", want)
		}
	}
}

func TestExperimentsRunOne(t *testing.T) {
	out, err := run(t, "experiments", "-id", "fig3")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "gshare only") || !strings.Contains(out, "completed in") {
		t.Errorf("fig3 output unexpected:\n%s", out)
	}
}

// TestExperimentsJobsByteIdentical checks the -jobs contract: stdout
// must not depend on the scheduler width (timing goes to stderr).
func TestExperimentsJobsByteIdentical(t *testing.T) {
	stdout := func(jobs string) string {
		t.Helper()
		cmd := exec.Command(filepath.Join(binDir, "experiments"),
			"-id", "table1", "-bench", "verilog,nroff", "-scale", "0.005", "-jobs", jobs)
		out, err := cmd.Output() // stdout only
		if err != nil {
			t.Fatalf("-jobs %s: %v", jobs, err)
		}
		return string(out)
	}
	serial, wide := stdout("1"), stdout("4")
	if serial != wide {
		t.Errorf("stdout differs between -jobs 1 and -jobs 4:\n--- jobs=1 ---\n%s--- jobs=4 ---\n%s", serial, wide)
	}
	if !strings.Contains(serial, "table1") {
		t.Errorf("unexpected output:\n%s", serial)
	}
}

func TestExperimentsCSVAndPlot(t *testing.T) {
	out, err := run(t, "experiments", "-id", "fig9", "-format", "csv")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "P_dm (1-bank),P_sk (3-bank skewed)") {
		t.Errorf("csv header missing:\n%s", out)
	}
	out, err = run(t, "experiments", "-id", "fig9", "-format", "plot")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "+---") && !strings.Contains(out, "|") {
		t.Errorf("plot frame missing:\n%s", out)
	}
}

func TestExperimentsRejectsUnknown(t *testing.T) {
	if out, err := run(t, "experiments", "-id", "fig99"); err == nil {
		t.Errorf("unknown experiment accepted:\n%s", out)
	}
	if out, err := run(t, "experiments", "-bench", "quake3", "-id", "fig3"); err == nil {
		t.Errorf("unknown benchmark accepted:\n%s", out)
	}
	if out, err := run(t, "experiments"); err == nil {
		t.Errorf("missing mode accepted:\n%s", out)
	}
}

// TestExperimentsRejectsSegmentsAboveOne: a cell runs serially (1) or
// automatically (0); any other -segments is a usage error (exit 2)
// that names the flag.
func TestExperimentsRejectsSegmentsAboveOne(t *testing.T) {
	out, err := run(t, "experiments", "-id", "table1", "-scale", "0.005", "-segments", "2")
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 2 {
		t.Fatalf("-segments 2: err %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(out, "-segments 2") {
		t.Errorf("usage error does not name the flag:\n%s", out)
	}
}

func TestPredsimOnBenchmark(t *testing.T) {
	out, err := run(t, "predsim",
		"-bench", "verilog", "-pred", "gskewed", "-entries", "1024",
		"-hist", "6", "-scale", "0.005")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"gskewed", "miss rate", "storage bits"} {
		if !strings.Contains(out, want) {
			t.Errorf("predsim output missing %q:\n%s", want, out)
		}
	}
}

func TestPredsimRejectsBadFlags(t *testing.T) {
	if out, err := run(t, "predsim", "-bench", "verilog", "-pred", "oracle"); err == nil {
		t.Errorf("unknown predictor accepted:\n%s", out)
	}
	if out, err := run(t, "predsim", "-pred", "gshare"); err == nil {
		t.Errorf("missing input accepted:\n%s", out)
	}
	if out, err := run(t, "predsim", "-bench", "verilog", "-policy", "middling"); err == nil {
		t.Errorf("unknown policy accepted:\n%s", out)
	}
}

func TestTracegenAndPredsimPipeline(t *testing.T) {
	tf := filepath.Join(t.TempDir(), "v.trace")
	out, err := run(t, "tracegen", "-bench", "verilog", "-scale", "0.005", "-o", tf)
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if fi, err := os.Stat(tf); err != nil || fi.Size() == 0 {
		t.Fatalf("trace file missing or empty: %v", err)
	}
	out, err = run(t, "predsim", "-trace", tf, "-pred", "gshare", "-entries", "4096", "-hist", "4")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "miss rate") {
		t.Errorf("pipeline output unexpected:\n%s", out)
	}
}

func TestTracegenStatsAndText(t *testing.T) {
	out, err := run(t, "tracegen", "-bench", "nroff", "-scale", "0.002", "-stats")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"dynamic conditional", "taken ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("stats output missing %q:\n%s", want, out)
		}
	}
	tf := filepath.Join(t.TempDir(), "t.txt")
	if out, err := run(t, "tracegen", "-bench", "nroff", "-scale", "0.001", "-format", "text", "-o", tf); err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	data, err := os.ReadFile(tf)
	if err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(string(data), "\n", 2)[0]
	if !strings.Contains(first, " ") {
		t.Errorf("text trace first line unexpected: %q", first)
	}
}

func TestAliasingTool(t *testing.T) {
	out, err := run(t, "aliasing",
		"-bench", "verilog", "-fn", "gshare", "-entries", "1024", "-hist", "4", "-scale", "0.005")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"compulsory", "capacity", "conflict", "DM miss ratio"} {
		if !strings.Contains(out, want) {
			t.Errorf("aliasing output missing %q:\n%s", want, out)
		}
	}
	if out, err := run(t, "aliasing", "-bench", "verilog", "-fn", "gspaghetti"); err == nil {
		t.Errorf("unknown index fn accepted:\n%s", out)
	}
}

func TestCalibrateTool(t *testing.T) {
	out, err := run(t, "calibrate", "-sites", "300", "-events", "20000")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	for _, want := range []string{"loop-backedge", "TOTAL", "correlated"} {
		if !strings.Contains(out, want) {
			t.Errorf("calibrate output missing %q:\n%s", want, out)
		}
	}
}

func TestReportTool(t *testing.T) {
	rf := filepath.Join(t.TempDir(), "REPORT.md")
	out, err := run(t, "report", "-only", "fig9,fig3", "-o", rf, "-scale", "0.002")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	data, err := os.ReadFile(rf)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{"# Regenerated evaluation", "## fig9", "## fig3", "```"} {
		if !strings.Contains(text, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestPredsimTopMisses(t *testing.T) {
	out, err := run(t, "predsim",
		"-bench", "verilog", "-pred", "gshare", "-entries", "1024",
		"-hist", "4", "-scale", "0.005", "-top", "5")
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if !strings.Contains(out, "top mispredicting branches") {
		t.Errorf("-top output missing table:\n%s", out)
	}
	if strings.Count(out, "0x") < 3 {
		t.Errorf("-top listed too few branches:\n%s", out)
	}
}

// TestPredservedUsageErrors checks the server binary classifies flag
// misuse as usage (exit 2) without ever binding a socket. Lifecycle
// coverage lives in cmd/predserved's in-process tests and
// scripts/serve_smoke.sh.
func TestPredservedUsageErrors(t *testing.T) {
	out, err := run(t, "predserved", "-mem-entries", "0")
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 2 {
		t.Fatalf("bad flag value: err=%v (want exit 2)\n%s", err, out)
	}
	if out, err := run(t, "predserved", "stray-arg"); err == nil {
		t.Errorf("positional argument accepted:\n%s", out)
	}
}

func TestPredsimAllPredictorKinds(t *testing.T) {
	for _, kind := range []string{
		"bimodal", "gshare", "gselect", "gskewed", "egskew", "2bcgskew",
		"agree", "bimode", "pas", "skewed-pas", "hybrid", "unaliased", "assoc-lru",
	} {
		out, err := run(t, "predsim",
			"-bench", "verilog", "-pred", kind, "-entries", "512",
			"-hist", "6", "-scale", "0.002")
		if err != nil {
			t.Fatalf("%s: %v\n%s", kind, err, out)
		}
		if !strings.Contains(out, "miss rate") {
			t.Errorf("%s: no miss rate in output:\n%s", kind, out)
		}
	}
}
