package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readSpec(path string) (benchSpec, error) {
	var spec benchSpec
	data, err := os.ReadFile(path)
	if err != nil {
		return spec, err
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return spec, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// runRecord is one line of an -out file.
type runRecord struct {
	Seed      uint64 `json:"seed"`
	Trace     bool   `json:"trace"`
	Workloads map[string]struct {
		Metrics map[string]metricValue `json:"metrics"`
	} `json:"workloads"`
}

// loadRuns reads the untraced runs of an -out file as
// workload -> metric -> values in file order.
func loadRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Trace {
			continue
		}
		for wl, w := range r.Workloads {
			if out[wl] == nil {
				out[wl] = map[string][]float64{}
			}
			for name, v := range w.Metrics {
				out[wl][name] = append(out[wl][name], v.Value)
			}
		}
	}
	return out, sc.Err()
}

// verdict compares two sides' runs of one metric. worse is the head's
// median change in the worsening direction as a share of the base
// median; win is the fraction of (base[i], head[i]) pairs the head
// wins, ties counting for neither.
func verdict(base, head []float64, better string, bound float64) (v string, worse, win float64) {
	sign := 1.0 // positive worse means a regression
	if better == "higher" {
		sign = -1
	}
	bq, hq := quartiles(base), quartiles(head)
	worse = sign * (hq[1] - bq[1]) / math.Abs(bq[1])
	pairs := min(len(base), len(head))
	wins := 0
	for i := 0; i < pairs; i++ {
		if sign*(head[i]-base[i]) < 0 {
			wins++
		}
	}
	win = float64(wins) / float64(max(pairs, 1))
	// allBetter: every head run reads better than every base run.
	allBetter := true
	for _, h := range head {
		for _, b := range base {
			if sign*(h-b) >= 0 {
				allBetter = false
			}
		}
	}
	// A gain needs nine tenths of the pairs and a median shift larger
	// than the base's own interquartile distance.
	gain := worse < 0 && win >= 0.9 && math.Abs(hq[1]-bq[1]) > bq[2]-bq[0]
	switch {
	case math.Max(spread(base), spread(head)) > bound && !(allBetter && gain):
		return "unresolved", worse, win
	case worse > bound:
		return "worse", worse, win
	case gain:
		return "better", worse, win
	}
	return "same", worse, win
}

// runCompare prints one row per (workload, end-to-end metric) for each
// head file against the base file, applying the bounds in specPath.
// It fails when any row is worse.
func runCompare(w io.Writer, specPath string, files []string) error {
	if len(files) < 2 {
		return fmt.Errorf("-compare needs a base run file and at least one head run file")
	}
	spec, err := readSpec(specPath)
	if err != nil {
		return err
	}
	base, err := loadRuns(files[0])
	if err != nil {
		return err
	}
	worseRows := 0
	for _, hf := range files[1:] {
		head, err := loadRuns(hf)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# base %s vs head %s\n", files[0], hf)
		fmt.Fprintf(w, "%-8s %-12s %-6s %6s  %-40s %-40s %8s %5s  %s\n",
			"workload", "metric", "unit", "bound", "base median [q1, q3] (n)", "head median [q1, q3] (n)", "worse", "win", "verdict")
		for _, wl := range spec.Workloads {
			for _, m := range spec.EndToEnd {
				b, h := base[wl.Name][m.Name], head[wl.Name][m.Name]
				if len(b) == 0 || len(h) == 0 {
					continue
				}
				v, worse, win := verdict(b, h, m.Better, m.Bound)
				if v == "worse" {
					worseRows++
				}
				fmt.Fprintf(w, "%-8s %-12s %-6s %6.2f  %-40s %-40s %+7.1f%% %5.2f  %s\n",
					wl.Name, m.Name, m.Unit, m.Bound, side(b), side(h), 100*worse, win, v)
			}
		}
	}
	if worseRows > 0 {
		return fmt.Errorf("%d (workload, metric) rows are worse than the base by more than their bound", worseRows)
	}
	return nil
}

func side(xs []float64) string {
	q := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q[1], q[0], q[2], len(xs))
}
