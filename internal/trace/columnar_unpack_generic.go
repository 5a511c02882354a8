//go:build !amd64 && !arm64

package trace

// unpackColumnarRecords is the dictionary-mode hot kernel; targets
// without the fast variant (columnar_unpack_fast.go) use the portable
// one.
func unpackColumnarRecords(dst []Branch, ext, dirs []byte, dict *[ColumnarBlockSize]uint64, width int, kinds []uint64) uint64 {
	return unpackColumnarRecordsPortable(dst, ext, dirs, dict, width, kinds)
}
