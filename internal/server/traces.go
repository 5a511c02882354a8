package server

import (
	"fmt"
	"io"
	"net/http"
	"strconv"

	"gskew/internal/api"
	"gskew/internal/trace"
)

// Trace ingest and retrieval: the HTTP face of the content-addressed
// trace segment pool. POST /v1/traces accepts a raw binary trace body
// (block-columnar, or the legacy varint format that nothing writes any
// more, sniffed from the magic by trace.DecodeBytes) and pools it under
// its canonical content hash; the response carries only the hash and
// record count, so re-ingesting the same trace — in either
// serialisation — returns a byte-identical response and stores nothing
// new. GET /v1/traces/{hash} serves the pooled
// segment back, always re-encoded in the columnar format (canonical
// bytes for a given branch sequence, so repeated GETs are
// byte-identical too). A pooled hash can then address simulations
// directly via the trace_sha256 field of POST /v1/simulate.

// handleTraceIngest decodes the uploaded trace and pools it; a
// columnar body is kept as the segment's disk blob without re-encoding.
func (s *Server) handleTraceIngest(w http.ResponseWriter, r *http.Request) error {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		return err // MaxBytesReader errors map to 413 in instrument
	}
	branches, err := trace.DecodeBytes(body)
	if err != nil {
		return apiErrorf(http.StatusBadRequest, api.CodeBadTrace, "decoding trace: %v", err)
	}
	hash, _, err := s.pool.PutEncoded(branches, body)
	if err != nil {
		return fmt.Errorf("pooling trace: %w", err)
	}
	return writeJSON(w, api.TraceIngestResponse{TraceSHA256: hash, Branches: len(branches)})
}

// handleTraceGet serves one pooled segment in the columnar format.
func (s *Server) handleTraceGet(w http.ResponseWriter, r *http.Request) error {
	hash := r.PathValue("hash")
	branches, ok := s.pool.Get(hash)
	if !ok {
		return apiErrorf(http.StatusNotFound, api.CodeNoSuchTrace, "no pooled trace %s", hash)
	}
	data, err := trace.EncodeColumnar(branches)
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(data)))
	_, err = w.Write(data)
	return err
}
