package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// expectedJSON pins output digests for seeds 1-3 at both input sizes;
// regenerate it with -write-expected after an intended output change.
//
//go:embed testdata/expected.json
var expectedJSON []byte

// digests maps an output's name (for example "nroff/gshare:n=14,k=12,ctr=2")
// to the hex SHA-256 of its canonical bytes.
type digests map[string]string

// expected holds the pinned digests keyed "<size>/<workload>/<seed>".
var expected = func() map[string]digests {
	m := map[string]digests{}
	if err := json.Unmarshal(expectedJSON, &m); err != nil {
		panic(fmt.Sprintf("benchmark: testdata/expected.json: %v", err))
	}
	return m
}()

func expectedKey(workload string, cfg config) string {
	size := "full"
	if cfg.short {
		size = "short"
	}
	return size + "/" + workload + "/" + strconv.FormatUint(cfg.seed, 10)
}

func sha(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// digestCheck holds a workload's reference outputs: the pinned digests
// when the seed has them, otherwise the first pass's, so every later
// pass of the run must reproduce the first byte for byte.
type digestCheck struct {
	workload string
	ref      digests
	pinned   bool
}

func newDigestCheck(workload string, cfg config) *digestCheck {
	d := &digestCheck{workload: workload, ref: digests{}}
	if pin, ok := expected[expectedKey(workload, cfg)]; ok {
		d.ref, d.pinned = pin, true
	}
	return d
}

// check compares one output with its reference and reports whether it
// matched; a mismatch is a failed operation.
func (d *digestCheck) check(name, digest string, t *tally) bool {
	want, ok := d.ref[name]
	if !ok {
		if d.pinned {
			t.fail("%s %s: no pinned digest", d.workload, name)
			return false
		}
		d.ref[name] = digest
		return true
	}
	if want != digest {
		t.fail("%s %s: output digest %.12s, want %.12s", d.workload, name, digest, want)
		return false
	}
	return true
}

// writeExpected runs one pass of every digest-checked workload for
// seeds 1-3 at both sizes and writes the digests to path.
func writeExpected(path, workdir string) error {
	pinned := expected
	expected = map[string]digests{}
	defer func() { expected = pinned }()
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(workdir, "expected")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	out := map[string]digests{}
	for _, short := range []bool{false, true} {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := config{seed: seed, short: short, dir: dir}
			for _, wl := range workloads {
				if wl.name == "serve" {
					continue // serve checks responses against direct simulation
				}
				t := &tally{}
				inst, err := wl.setup(cfg, t)
				if err != nil {
					return err
				}
				inst.traced(openSpan{})
				d := inst.(interface{ outputs() *digestCheck }).outputs()
				inst.close()
				if t.failed > 0 {
					return fmt.Errorf("%s seed %d: %v", wl.name, seed, t.errs)
				}
				out[expectedKey(wl.name, cfg)] = d.ref
			}
		}
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d digest sets to %s\n", len(out), path)
	return nil
}
