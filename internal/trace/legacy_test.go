package trace_test

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
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
