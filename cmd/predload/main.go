// Command predload is the typed-client toolbelt and load generator for
// predserved. Every byte it sends travels through internal/client —
// it is both the reference consumer of the /v1 wire contract and the
// machinery behind the serve smoke scripts and the serving
// benchmark snapshot (BENCH_serve.json).
//
// Subcommands:
//
//	sweep     zipfian spec/trace load against a live or in-process server;
//	          emits p50/p99/p999 latency and cache-hit curves as JSON
//	simulate  post one SimulateRequest (JSON from a file or stdin),
//	          print the raw response body
//	ingest    upload a binary trace file, print the ingest response
//	trace     fetch a pooled trace by hash, write the canonical bytes
//	health    print GET /v1/health
//	metric    print one numeric /metrics value (smoke counter deltas)
//
// Examples:
//
//	predload sweep -cells 27 -passes 3 -out BENCH_serve.json
//	predload simulate -target http://127.0.0.1:8149 -body sweep.json
//	predload metric -target http://127.0.0.1:8149 server.simulate.cache_hits
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"gskew/internal/api"
	"gskew/internal/cli"
	"gskew/internal/client"
)

func main() { cli.Main("predload", run) }

func run(args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return cli.Usagef("no subcommand: want sweep, simulate, ingest, trace, health or metric")
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "sweep":
		return runSweep(rest, stdout, stderr)
	case "simulate":
		return runSimulate(rest, stdout, stderr)
	case "ingest":
		return runIngest(rest, stdout, stderr)
	case "trace":
		return runTrace(rest, stdout, stderr)
	case "health":
		return runHealth(rest, stdout, stderr)
	case "metric":
		return runMetric(rest, stdout, stderr)
	default:
		return cli.Usagef("unknown subcommand %q", cmd)
	}
}

// targetFlag declares the shared -target flag.
func targetFlag(fs interface {
	String(name, value, usage string) *string
}) *string {
	return fs.String("target", "http://127.0.0.1:8149", "predserved base URL")
}

// printJSON renders v in the server's deterministic 2-space style.
func printJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

// runSimulate posts one SimulateRequest read from -body (a file, or
// "-" for stdin) and writes the raw response body to stdout, so shell
// pipelines can cmp responses byte-for-byte. The X-Cache summary goes
// to stderr.
func runSimulate(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("predload simulate", stderr)
	target := targetFlag(fs)
	body := fs.String("body", "-", "SimulateRequest JSON file (- = stdin)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return cli.Usagef("unexpected arguments: %v", fs.Args())
	}
	raw, err := readInput(*body)
	if err != nil {
		return err
	}
	var req api.SimulateRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return fmt.Errorf("parsing request body: %w", err)
	}
	resp, stats, err := client.New(*target).SimulateRaw(context.Background(), &req)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "X-Cache: hits=%d misses=%d\n", stats.Hits, stats.Misses)
	_, err = stdout.Write(resp)
	return err
}

// runIngest uploads a binary trace file and prints the response.
func runIngest(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("predload ingest", stderr)
	target := targetFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return cli.Usagef("want exactly one trace file argument")
	}
	raw, err := readInput(fs.Arg(0))
	if err != nil {
		return err
	}
	resp, err := client.New(*target).IngestTrace(context.Background(), raw)
	if err != nil {
		return err
	}
	return printJSON(stdout, resp)
}

// runTrace fetches a pooled segment's canonical bytes.
func runTrace(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("predload trace", stderr)
	target := targetFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return cli.Usagef("want exactly one trace hash argument")
	}
	data, err := client.New(*target).GetTrace(context.Background(), fs.Arg(0))
	if err != nil {
		return err
	}
	_, err = stdout.Write(data)
	return err
}

// runHealth prints the typed health document.
func runHealth(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("predload health", stderr)
	target := targetFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	h, err := client.New(*target).Health(context.Background())
	if err != nil {
		return err
	}
	return printJSON(stdout, h)
}

// runMetric prints one numeric metric value (bare, for shell
// arithmetic in the smoke scripts).
func runMetric(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("predload metric", stderr)
	target := targetFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return cli.Usagef("want exactly one metric name argument")
	}
	v, err := client.New(*target).Metric(context.Background(), fs.Arg(0))
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(stdout, v)
	return err
}

// readInput reads a file, or stdin for "-".
func readInput(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}
