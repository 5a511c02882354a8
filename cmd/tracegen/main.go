// Command tracegen materialises a benchmark workload into a trace
// file, in the block-columnar binary format (default) or the debug
// text format.
//
// -bench accepts a synthetic benchmark name or a recorded-algorithm
// spec ("algo:name,key=value,..."); -list prints every registered
// workload family with its key grammar.
//
// Examples:
//
//	tracegen -list
//	tracegen -bench groff -o groff.ctrace
//	tracegen -bench gs -scale 1.0 -o gs-full.ctrace
//	tracegen -bench algo:kmp,n=300000,m=8 -o kmp.ctrace
//	tracegen -bench verilog -format text -o verilog.txt
//	tracegen -bench nroff -stats
package main

import (
	"fmt"
	"io"
	"os"

	"gskew/internal/cli"
	"gskew/internal/trace"
	"gskew/internal/workload"
)

func main() { cli.Main("tracegen", run) }

func run(args []string, stdout, stderr io.Writer) error {
	fs := cli.NewFlagSet("tracegen", stderr)
	var (
		benchName = fs.String("bench", "", "workload name: a benchmark or an algo:... spec")
		scale     = fs.Float64("scale", 0, "workload scale (default 0.1; 1.0 = paper-length; synthetic benchmarks only)")
		seed      = fs.Uint64("seed", 0, "workload seed offset")
		out       = fs.String("o", "", "output file (default stdout)")
		format    = fs.String("format", "columnar", "output format: columnar (binary) or text")
		statsOnly = fs.Bool("stats", false, "print trace statistics instead of writing a trace")
		list      = fs.Bool("list", false, "list all registered workload families and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *list {
		fmt.Fprintf(stdout, "%-16s %-40s %s\n", "FAMILY", "KEYS", "DESCRIPTION")
		for _, f := range workload.AllFamilies() {
			fmt.Fprintf(stdout, "%-16s %-40s %s\n", f.Name, f.Keys, f.Doc)
		}
		return nil
	}

	if *benchName == "" {
		return cli.Usagef("specify -bench (see -list); available: %v + algo:... specs", workload.Names())
	}
	src, err := workload.OpenAny(*benchName, workload.Config{Scale: *scale, SeedOffset: *seed})
	if err != nil {
		return err
	}

	if *statsOnly {
		st, err := trace.Measure(src)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "benchmark:            %s\n", *benchName)
		fmt.Fprintf(stdout, "dynamic conditional:  %d\n", st.Dynamic)
		if spec, err := workload.ByName(*benchName); err == nil {
			fmt.Fprintf(stdout, "static conditional:   %d (spec target %d)\n", st.Static, spec.StaticBranches)
		} else {
			fmt.Fprintf(stdout, "static conditional:   %d\n", st.Static)
		}
		fmt.Fprintf(stdout, "dynamic uncond:       %d\n", st.DynamicUncond)
		fmt.Fprintf(stdout, "static uncond:        %d\n", st.StaticUncond)
		fmt.Fprintf(stdout, "taken ratio:          %.3f\n", st.TakenRatio())
		return nil
	}

	w := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}

	switch *format {
	case "columnar":
		bw, err := trace.NewColumnarWriter(w)
		if err != nil {
			return err
		}
		n := 0
		buf := make([]trace.Branch, trace.BlockLen)
		for {
			k, err := trace.ReadBatch(src, buf)
			for _, b := range buf[:k] {
				if err := bw.Write(b); err != nil {
					return err
				}
			}
			n += k
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "tracegen: wrote %d events\n", n)
	case "text":
		if err := trace.WriteText(w, src); err != nil {
			return err
		}
	default:
		return cli.Usagef("unknown format %q", *format)
	}
	if f, ok := w.(*os.File); ok {
		return f.Close()
	}
	return nil
}
