package diff

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gskew/internal/sim"
	"gskew/internal/trace"
)

// The codec arm of the sweep. The trace codec sits upstream of every
// simulation, so a silent decode fault (a bitpack width off by one, a
// delta chain broken across blocks) corrupts every result while each
// individual run still looks plausible. The check is differential in
// the same spirit as the predictor arms: for every sweep cell, the
// cell's generated trace is written by the block-columnar encoder and
// read back through both entry points of the one decoder — DecodeBytes
// over the in-memory stream and MapFile over a file — and each decode
// must reproduce the generator's records exactly (and the same
// canonical content hash) AND drive the cell's implementation to a
// bit-identical simulation Result.

// codecDecode names one decode path of the codec arm.
type codecDecode struct {
	name   string
	decode func(dir string, columnar []byte) ([]trace.Branch, error)
}

func codecDecodes() []codecDecode {
	return []codecDecode{
		{"bytes", func(_ string, columnar []byte) ([]trace.Branch, error) {
			return trace.DecodeBytes(columnar)
		}},
		{"mmap", func(dir string, columnar []byte) ([]trace.Branch, error) {
			path := filepath.Join(dir, "codec-arm.ctrace")
			if err := os.WriteFile(path, columnar, 0o644); err != nil {
				return nil, err
			}
			m, err := trace.MapFile(path)
			if err != nil {
				return nil, err
			}
			defer m.Close()
			return trace.Collect(m)
		}},
	}
}

// VerifyCodecs runs the codec arm over every cell: each cell's trace
// is decoded through both paths and each decode must match the
// generated records, their content hash, and the simulation Result the
// original trace produces on the cell's implementation. Returns the
// total record count checked (summed over decode paths); any mismatch
// is an error naming the cell and path.
func VerifyCodecs(cells []Cell, branches int, seed uint64, log io.Writer) (int, error) {
	dir, err := os.MkdirTemp("", "gskew-codec-arm-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)

	records := 0
	for i, c := range cells {
		cellSeed := seed + uint64(i)
		tr, err := TraceFor(cellSeed, branches)
		if err != nil {
			return records, fmt.Errorf("diff: generating trace for %s (seed %d): %w", c, cellSeed, err)
		}
		wantHash := trace.HashBranches(tr)
		columnar, err := trace.EncodeColumnar(tr)
		if err != nil {
			return records, fmt.Errorf("diff: codec arm %s: columnar encode: %w", c, err)
		}
		impl, err := c.Impl()
		if err != nil {
			return records, err
		}
		want, err := sim.RunBranches(tr, impl, sim.Options{})
		if err != nil {
			return records, fmt.Errorf("diff: codec arm %s: reference run: %w", c, err)
		}
		for _, d := range codecDecodes() {
			got, err := d.decode(dir, columnar)
			if err != nil {
				return records, fmt.Errorf("diff: codec arm %s/%s: decode: %w", c, d.name, err)
			}
			if len(got) != len(tr) {
				return records, fmt.Errorf("diff: codec arm %s/%s: %d records decoded, want %d",
					c, d.name, len(got), len(tr))
			}
			for j := range tr {
				if got[j] != tr[j] {
					return records, fmt.Errorf("diff: codec arm %s/%s: record %d decoded as %+v, want %+v",
						c, d.name, j, got[j], tr[j])
				}
			}
			if h := trace.HashBranches(got); h != wantHash {
				return records, fmt.Errorf("diff: codec arm %s/%s: content hash %s, want %s",
					c, d.name, h, wantHash)
			}
			replayImpl, err := c.Impl()
			if err != nil {
				return records, err
			}
			res, err := sim.RunBranches(got, replayImpl, sim.Options{})
			if err != nil {
				return records, fmt.Errorf("diff: codec arm %s/%s: replay run: %w", c, d.name, err)
			}
			if res != want {
				return records, fmt.Errorf("diff: codec arm %s/%s: replayed Result %+v, want %+v",
					c, d.name, res, want)
			}
			records += len(got)
		}
		if log != nil {
			fmt.Fprintf(log, "%-28s seed=%-6d records=%-8d ok (bytes, mmap)\n",
				c, cellSeed, len(tr))
		}
	}
	return records, nil
}

// CodecSelfTest plants the columnar bitpack-width fault
// (trace.TamperColumnarBitpackWidth: dictionary indices packed one bit
// narrower than the header claims, a structurally valid stream that
// silently aliases PCs) and requires the differential comparison to
// catch it: the tampered stream must decode cleanly yet fail the
// record/hash comparison against the original trace. An error means
// the fault escaped — the codec arm could not be trusted to catch the
// real thing.
func CodecSelfTest(branches int, seed uint64, log io.Writer) error {
	// The fault only exists in dictionary-mode blocks (a raw-escape
	// block carries no packed indices to narrow), so probe consecutive
	// seeds — the three TraceFor generator modes — until one yields a
	// stream the tamper actually touches. Inapplicability is detected
	// structurally: a tampered encoding byte-identical to the clean one
	// planted nothing.
	var tr []trace.Branch
	var tampered []byte
	for s := seed; s < seed+3; s++ {
		cand, err := TraceFor(s, branches)
		if err != nil {
			return err
		}
		clean, err := trace.EncodeColumnar(cand)
		if err != nil {
			return err
		}
		var buf bytes.Buffer
		w, err := trace.NewColumnarWriter(&buf)
		if err != nil {
			return err
		}
		trace.TamperColumnarBitpackWidth(w)
		for i := range cand {
			if err := w.Write(cand[i]); err != nil {
				return err
			}
		}
		if err := w.Flush(); err != nil {
			return err
		}
		if !bytes.Equal(clean, buf.Bytes()) {
			tr, tampered = cand, buf.Bytes()
			break
		}
	}
	if tampered == nil {
		return fmt.Errorf("diff: codec selftest: no generator mode near seed %d produced a dictionary-packed block to tamper", seed)
	}
	got, err := trace.DecodeBytes(tampered)
	if err != nil {
		// The fault must be silent: checksums are computed over the
		// tampered payload, so a decode error means the plant itself is
		// broken, not that the harness caught it.
		return fmt.Errorf("diff: codec selftest: tampered stream failed to decode (%w); the planted fault must be silent", err)
	}
	caught := trace.HashBranches(got) != trace.HashBranches(tr)
	if log != nil {
		status := "ESCAPED"
		if caught {
			status = fmt.Sprintf("caught (decode clean, %d records, content hash diverged)", len(got))
		}
		fmt.Fprintf(log, "%-28s %-22s %s\n", "codec/columnar", "columnar-width-off-by-one", status)
	}
	if !caught {
		return fmt.Errorf("diff: codec selftest: columnar-width-off-by-one escaped (tampered stream decoded to the original records)")
	}
	return nil
}
