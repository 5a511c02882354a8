package trace

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Content hashing
//
// A trace's content hash is the SHA-256 of a canonical fixed-width
// record encoding (not of any particular file serialisation), so the
// same branch sequence hashes identically whether it arrived as a
// binary file, a text file or a generated workload. The result store
// uses it as the trace component of its cache keys: two clients
// re-running overlapping (spec, trace) cells share cached results
// exactly when their traces are event-for-event identical.

// hashRecordSize is the canonical per-record encoding width: the
// word-aligned PC in little-endian order plus one flag byte holding
// the Kind in bit 0 and Taken in bit 1 (mirroring the binary codec's
// bit layout).
const hashRecordSize = 9

// hashChunk is how many records are staged per digest write.
const hashChunk = 512

// appendHashRecords encodes recs in the canonical hash form, appending
// to dst; each record's PC is one little-endian word store.
func appendHashRecords(dst []byte, recs []Branch) []byte {
	at := len(dst)
	dst = slices.Grow(dst, len(recs)*hashRecordSize)[:at+len(recs)*hashRecordSize]
	for i := range recs {
		rec := dst[at+i*hashRecordSize : at+(i+1)*hashRecordSize]
		binary.LittleEndian.PutUint64(rec, recs[i].PC)
		rec[8] = byte(recs[i].Kind)&1 | byte(b2u(recs[i].Taken))<<1
	}
	return dst
}

// HashBranches returns the hex content hash of an in-memory trace.
func HashBranches(branches []Branch) string {
	h := sha256.New()
	buf := make([]byte, 0, hashChunk*hashRecordSize)
	for len(branches) > 0 {
		n := min(len(branches), hashChunk)
		h.Write(appendHashRecords(buf, branches[:n]))
		branches = branches[n:]
	}
	return hex.EncodeToString(h.Sum(nil))
}

// HashSource streams src to exhaustion and returns its hex content
// hash and record count. The source is consumed; callers that need the
// events afterwards should Collect first and use HashBranches.
func HashSource(src Source) (hash string, n int, err error) {
	h := sha256.New()
	buf := make([]Branch, hashChunk)
	enc := make([]byte, 0, hashChunk*hashRecordSize)
	for {
		k, err := ReadBatch(src, buf)
		h.Write(appendHashRecords(enc, buf[:k]))
		n += k
		if errors.Is(err, io.EOF) {
			return hex.EncodeToString(h.Sum(nil)), n, nil
		}
		if err != nil {
			return "", n, fmt.Errorf("trace: hashing: %w", err)
		}
	}
}
