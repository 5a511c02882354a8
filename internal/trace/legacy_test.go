package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gskew/internal/trace"
	"gskew/internal/workload"
)

// legacyFixturePath is the committed varint trace: verilog at scale
// 0.01, written by `tracegen -bench verilog -scale 0.01 -format binary`
// before the varint writer was retired. It is the legacy-format input
// for every test that needs one, here and in the server and sim tests.
const (
	legacyFixturePath   = "testdata/verilog-0.01.trace"
	legacyFixtureSHA256 = "f3b2228a3e29f481bd3d06d37d0ac41bc8fc875c01be301b8ecd8d62d8528032"
)

// TestLegacyFixtureDecodes pins the fixture's bytes and requires both
// entry points of the one decoder, DecodeBytes and MapFile, to read it
// back as exactly the records the generator produces today.
func TestLegacyFixtureDecodes(t *testing.T) {
	data, err := os.ReadFile(legacyFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != legacyFixtureSHA256 {
		t.Fatalf("fixture SHA-256 is %s, want %s", got, legacyFixtureSHA256)
	}

	generated, err := workload.MaterializeAny("verilog", workload.Config{Scale: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	want := trace.HashBranches(generated)

	decoded, err := trace.DecodeBytes(data)
	if err != nil {
		t.Fatalf("DecodeBytes: %v", err)
	}
	if len(decoded) != len(generated) || trace.HashBranches(decoded) != want {
		t.Errorf("DecodeBytes: %d records hashing to %s, want %d records hashing to %s",
			len(decoded), trace.HashBranches(decoded), len(generated), want)
	}

	m, err := trace.MapFile(legacyFixturePath)
	if err != nil {
		t.Fatalf("MapFile: %v", err)
	}
	defer m.Close()
	mapped, err := trace.Collect(m)
	if err != nil {
		t.Fatalf("MapFile: %v", err)
	}
	if len(mapped) != len(generated) || trace.HashBranches(mapped) != want {
		t.Errorf("MapFile: %d records hashing to %s, want %d records hashing to %s",
			len(mapped), trace.HashBranches(mapped), len(generated), want)
	}
}

// TestLegacyFixtureCutInsideVarint cuts the committed fixture inside a
// record's varint, and follows its header with an over-long varint:
// both must fail through both entry points with an error wrapping
// ErrCorrupt, as every columnar decode failure does, and the two
// faults must read differently. A cut at a record boundary is not
// detectable in this format, which has no record count or checksum.
func TestLegacyFixtureCutInsideVarint(t *testing.T) {
	data, err := os.ReadFile(legacyFixturePath)
	if err != nil {
		t.Fatal(err)
	}
	// The last continuation byte past the header: cutting right after
	// it leaves that record's varint unfinished.
	cut := -1
	for i := len(data) - 1; i >= 16; i-- {
		if data[i]&0x80 != 0 {
			cut = i + 1
			break
		}
	}
	if cut < 0 {
		t.Fatal("fixture has no multi-byte varint")
	}
	overflow := append(append([]byte(nil), data[:16]...), bytes.Repeat([]byte{0xff}, 11)...)
	dir := t.TempDir()
	for _, tc := range []struct {
		name, want string
		data       []byte
	}{
		{"truncated", "truncated", data[:cut]},
		{"overflow", "overflows", overflow},
	} {
		if _, err := trace.DecodeBytes(tc.data); !errors.Is(err, trace.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: DecodeBytes error = %v, want ErrCorrupt saying %q", tc.name, err, tc.want)
		}
		path := filepath.Join(dir, tc.name+".trace")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, err := trace.MapFile(path)
		if err != nil {
			t.Fatalf("%s: MapFile: %v", tc.name, err)
		}
		if _, err := trace.Collect(m); !errors.Is(err, trace.ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: MapFile error = %v, want ErrCorrupt saying %q", tc.name, err, tc.want)
		}
		m.Close()
	}
}
