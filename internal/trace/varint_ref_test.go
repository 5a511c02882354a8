package trace

import (
	"bytes"
	"encoding/binary"
	"os"
	"testing"
)

// legacyFixture is the committed varint trace that legacy_test.go
// pins, bytes and content.
const legacyFixture = "testdata/verilog-0.01.trace"

// referenceEncodeVarint renders branches in the legacy varint format
// (see trace.go), which nothing outside the tests writes any more. The
// tests build legacy streams with it to drive Mapped's varint arm. The
// format carries one kind bit and a 62-bit zig-zag PC delta, so a kind
// above Unconditional or a wider delta does not survive the trip;
// varintRepresentable tells which traces do.
func referenceEncodeVarint(branches []Branch) []byte {
	out := make([]byte, 16, 16+2*len(branches))
	copy(out[:4], magic[:])
	out[4] = formatVersion
	prev := uint64(0)
	for _, b := range branches {
		v := zigzag(int64(b.PC)-int64(prev))<<2 | uint64(b.Kind&1)
		if b.Taken {
			v |= 2
		}
		out = binary.AppendUvarint(out, v)
		prev = b.PC
	}
	return out
}

// varintRepresentable reports whether the legacy varint format holds
// branches exactly: every kind is one bit and every zig-zag PC delta
// fits the 62 bits left beside the flags.
func varintRepresentable(branches []Branch) bool {
	prev := uint64(0)
	for _, b := range branches {
		if b.Kind > Unconditional || zigzag(int64(b.PC)-int64(prev))>>62 != 0 {
			return false
		}
		prev = b.PC
	}
	return true
}

// TestReferenceEncodeVarintMatchesFixture: re-encoding the fixture's
// records reproduces the fixture byte for byte, so the reference
// encoder writes what the retired writer wrote.
func TestReferenceEncodeVarintMatchesFixture(t *testing.T) {
	data, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	branches, err := DecodeBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(referenceEncodeVarint(branches), data) {
		t.Fatal("reference varint encoding of the fixture's records differs from the fixture")
	}
}
