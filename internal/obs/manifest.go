package obs

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// Cell is the manifest record of one simulation cell: one RunMany
// call (one trace, one or more predictors).
type Cell struct {
	// ID identifies the cell, e.g. "fig5/groff".
	ID string `json:"id"`
	// Predictors are the canonical Spec strings (or String() forms for
	// composite predictors outside the Spec grammar) of the cell's
	// predictors, in run order.
	Predictors []string `json:"predictors"`
	// MemoHits, when present, marks per predictor (in run order) the
	// results served from the experiments memo instead of simulated.
	MemoHits []bool `json:"memo_hits,omitempty"`
	// Conditionals is the shared conditional-branch count of the cell.
	Conditionals int `json:"conditionals,omitempty"`
	// WallMS is the cell's wall-clock time in milliseconds. Per-cell
	// CPU time is not observable per goroutine in Go; the manifest
	// carries process-wide CPU totals instead (Manifest.CPUUserMS).
	WallMS float64 `json:"wall_ms"`
	// Result optionally carries per-predictor scalar results.
	Result any `json:"result,omitempty"`
}

// Manifest describes one tool invocation end to end: what ran, on
// which code, with which parameters, and how long each cell took —
// enough to reproduce the run byte for byte.
type Manifest struct {
	Tool      string    `json:"tool"`
	Args      []string  `json:"args,omitempty"`
	Start     time.Time `json:"start"`
	WallMS    float64   `json:"wall_ms"`
	CPUUserMS float64   `json:"cpu_user_ms,omitempty"`
	CPUSysMS  float64   `json:"cpu_sys_ms,omitempty"`

	GoVersion   string `json:"go_version"`
	VCSRevision string `json:"vcs_revision,omitempty"`
	VCSTime     string `json:"vcs_time,omitempty"`
	VCSModified bool   `json:"vcs_modified,omitempty"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"num_cpu"`
	Hostname    string `json:"hostname,omitempty"`

	// Params carries tool-specific knobs (scale, seed, jobs, ...).
	Params map[string]any `json:"params,omitempty"`
	// Cells are the simulation cells the run executed, in completion
	// order.
	Cells []Cell `json:"cells,omitempty"`
	// Metrics is a snapshot of the Default registry at finish time
	// (present only when metric collection was enabled).
	Metrics map[string]any `json:"metrics,omitempty"`

	start time.Time
}

// NewManifest starts a manifest for the named tool, stamping the
// build/version environment now and the timings at Finish.
func NewManifest(tool string, args []string) *Manifest {
	now := time.Now()
	m := &Manifest{
		Tool:      tool,
		Args:      args,
		Start:     now.UTC(),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Params:    make(map[string]any),
		start:     now,
	}
	if host, err := os.Hostname(); err == nil {
		m.Hostname = host
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.VCSRevision = s.Value
			case "vcs.time":
				m.VCSTime = s.Value
			case "vcs.modified":
				m.VCSModified = s.Value == "true"
			}
		}
	}
	return m
}

// SetParam records one tool parameter.
func (m *Manifest) SetParam(key string, value any) { m.Params[key] = value }

// AddCell appends one cell record.
func (m *Manifest) AddCell(c Cell) { m.Cells = append(m.Cells, c) }

// Finish stamps wall and process CPU time and, when metric collection
// is enabled, snapshots the Default registry into the manifest.
func (m *Manifest) Finish() {
	m.WallMS = float64(time.Since(m.start)) / float64(time.Millisecond)
	user, sys := cpuTimes()
	m.CPUUserMS = float64(user) / float64(time.Millisecond)
	m.CPUSysMS = float64(sys) / float64(time.Millisecond)
	if Enabled() {
		m.Metrics = Default().Snapshot()
	}
}

// WriteJSON writes the manifest as indented JSON.
func (m *Manifest) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteFile finishes the manifest and writes it to path.
func (m *Manifest) WriteFile(path string) error {
	m.Finish()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
