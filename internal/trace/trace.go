// Package trace defines the branch-trace representation shared by the
// workload generators, the predictors and the experiment harness, plus
// the codecs for storing traces on disk: the block-columnar binary
// format (ColumnarWriter, EncodeColumnar), the one binary format
// written, and a debug text format (WriteText, ReadText). Binary traces
// are read by one decoder, Mapped (MapFile for files, DecodeBytes for
// in-memory streams), which sniffs the magic and also reads the legacy
// varint format that older files use.
//
// A trace is a sequence of Branch records in program order. Matching
// the paper's methodology (section 3.1), records carry a Kind so that
// unconditional branches can participate in the global history while
// being excluded from prediction accounting, and a word-aligned PC
// (the paper's a_N..a_2 address bits).
package trace

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"strconv"
	"strings"
)

// Kind distinguishes branch classes in a trace.
type Kind uint8

const (
	// Conditional branches are predicted and counted.
	Conditional Kind = iota
	// Unconditional branches (jumps, calls, returns) only shift the
	// global history; they are always taken.
	Unconditional
)

// String returns "cond" or "uncond".
func (k Kind) String() string {
	switch k {
	case Conditional:
		return "cond"
	case Unconditional:
		return "uncond"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Branch is one dynamic branch event.
type Branch struct {
	// PC is the word address of the branch instruction (byte PC >> 2).
	PC uint64
	// Taken is the resolved direction. Unconditional branches are
	// always taken.
	Taken bool
	// Kind classifies the branch.
	Kind Kind
}

// Source yields a stream of branches. Next returns io.EOF when the
// stream is exhausted.
type Source interface {
	Next() (Branch, error)
}

// BatchSource is an optional extension of Source for bulk delivery.
// NextBatch fills dst with up to len(dst) records, returning the
// number filled. It follows io.Reader conventions: n may be short of
// len(dst) without the stream being done, n > 0 may accompany io.EOF,
// and an exhausted stream returns (0, io.EOF). The records delivered
// by a sequence of NextBatch calls are exactly those a sequence of
// Next calls would deliver, in the same order.
type BatchSource interface {
	Source
	NextBatch(dst []Branch) (n int, err error)
}

// ReadBatch fills dst from src, using the bulk path when src
// implements BatchSource and falling back to per-record Next calls
// otherwise. Like NextBatch, it may return n > 0 alongside io.EOF.
func ReadBatch(src Source, dst []Branch) (int, error) {
	if bs, ok := src.(BatchSource); ok {
		return bs.NextBatch(dst)
	}
	for i := range dst {
		b, err := src.Next()
		if err != nil {
			return i, err
		}
		dst[i] = b
	}
	return len(dst), nil
}

// Producer is a push-side trace: Produce hands the whole stream to
// yield in program order, one block at a time, and returns the first
// error yield returns — after which it hands over no further block —
// or its own. A block is valid only during the yield call: the
// producer reuses its memory for the next block, so a consumer that
// keeps records must copy them. A trace that is read once can flow
// through a consumer this way without ever existing whole.
type Producer interface {
	Produce(yield func([]Branch) error) error
}

// BlockLen is the block length of Blocks' pull loop and of the
// producers in this repository: 4096 records (64KB), large enough to
// amortise the per-block call, small enough to stay cache-resident.
const BlockLen = 4096

// Blocks hands src to yield one block at a time, in program order: a
// Producer pushes its own blocks, a SliceSource's unread slice is one
// block, and any other source is read BlockLen records at a time into
// one reused buffer. As with Producer, a block is valid only during
// the yield call. Blocks returns the first error yield returns, or the
// error reading src.
func Blocks(src Source, yield func([]Branch) error) error {
	switch s := src.(type) {
	case *SliceSource:
		return yield(s.Drain())
	case Producer:
		return s.Produce(yield)
	}
	buf := make([]Branch, BlockLen)
	for {
		n, err := ReadBatch(src, buf)
		if yerr := yield(buf[:n]); yerr != nil {
			return yerr
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: reading: %w", err)
		}
	}
}

// SliceSource adapts a []Branch into a Source.
type SliceSource struct {
	branches []Branch
	pos      int
}

// NewSliceSource returns a Source reading from the given slice.
func NewSliceSource(b []Branch) *SliceSource { return &SliceSource{branches: b} }

// Next implements Source.
func (s *SliceSource) Next() (Branch, error) {
	if s.pos >= len(s.branches) {
		return Branch{}, io.EOF
	}
	b := s.branches[s.pos]
	s.pos++
	return b, nil
}

// NextBatch implements BatchSource by copying from the underlying
// slice.
func (s *SliceSource) NextBatch(dst []Branch) (int, error) {
	if s.pos >= len(s.branches) {
		return 0, io.EOF
	}
	n := copy(dst, s.branches[s.pos:])
	s.pos += n
	return n, nil
}

// Reset rewinds the source to the beginning without reallocating,
// so one SliceSource can replay the same materialised trace across
// many simulation runs.
func (s *SliceSource) Reset() { s.pos = 0 }

// Drain returns the unread tail of the underlying slice and marks the
// source exhausted (Next returns io.EOF until Reset). Batch consumers
// use it to iterate the materialised trace directly instead of paying
// an interface call per event.
func (s *SliceSource) Drain() []Branch {
	rest := s.branches[s.pos:]
	s.pos = len(s.branches)
	return rest
}

// Len returns the total number of branches in the underlying slice.
func (s *SliceSource) Len() int { return len(s.branches) }

// Collect drains a Source into a slice, reading it in blocks straight
// into the result's spare capacity, which grows by at least BlockLen
// records when full. It stops at io.EOF and returns any other error
// encountered.
func Collect(src Source) ([]Branch, error) {
	var out []Branch
	for {
		if len(out) == cap(out) {
			out = slices.Grow(out, BlockLen)
		}
		n, err := ReadBatch(src, out[len(out):cap(out)])
		out = out[:len(out)+n]
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return out, err
		}
	}
}

// Stats summarises a trace, reproducing the quantities of Table 1.
// The zero value is an empty accumulator.
type Stats struct {
	Dynamic       int // dynamic conditional branches
	Static        int // distinct conditional branch PCs
	DynamicUncond int // dynamic unconditional branches
	StaticUncond  int // distinct unconditional branch PCs
	TakenCond     int // taken conditional branches
	total         int
	condPCs       pcSet
	uncondPCs     pcSet
}

// NewStats returns an empty accumulator.
func NewStats() *Stats { return &Stats{} }

// Observe accounts one branch.
func (s *Stats) Observe(b Branch) { s.observe([]Branch{b}) }

// observe accounts a block of branches. Most PCs of a trace repeat and
// sit in their home slot of the PC set, so that check is made inline.
func (s *Stats) observe(blk []Branch) {
	for _, b := range blk {
		s.total++
		var set *pcSet
		switch b.Kind {
		case Conditional:
			s.Dynamic++
			if b.Taken {
				s.TakenCond++
			}
			set = &s.condPCs
		case Unconditional:
			s.DynamicUncond++
			set = &s.uncondPCs
		default:
			continue
		}
		if h := b.PC * fib >> set.shift; h < uint64(len(set.slots)) && set.slots[h] == b.PC && b.PC != 0 {
			continue
		}
		if set.add(b.PC) {
			s.Static, s.StaticUncond = s.condPCs.len(), s.uncondPCs.len()
		}
	}
}

// pcSet is a set of PCs: open addressing with linear probing in a
// power-of-two table of Fibonacci-hashed slots, kept at most half full
// (like the columnar encoder's PC table, but growing). Zero marks an
// empty slot, so PC 0 is kept apart.
type pcSet struct {
	slots []uint64
	shift uint // 64 - log2(len(slots))
	n     int  // nonzero members
	zero  bool // whether PC 0 is a member
}

// minPCSet is the smallest pcSet table.
const minPCSet = 1 << 10

// fib is 2^64 divided by the golden ratio, the multiplier of
// Fibonacci hashing.
const fib = 0x9E3779B97F4A7C15

// add inserts pc and reports whether it was not yet a member.
func (s *pcSet) add(pc uint64) bool {
	if pc == 0 {
		added := !s.zero
		s.zero = true
		return added
	}
	if 2*s.n >= len(s.slots) {
		s.grow()
	}
	mask := uint64(len(s.slots) - 1)
	for i := pc * fib >> s.shift; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case pc:
			return false
		case 0:
			s.slots[i] = pc
			s.n++
			return true
		}
	}
}

// len returns the number of members.
func (s *pcSet) len() int {
	if s.zero {
		return s.n + 1
	}
	return s.n
}

// grow doubles the table and reinserts the members.
func (s *pcSet) grow() {
	old := s.slots
	size := max(2*len(old), minPCSet)
	s.slots = make([]uint64, size)
	s.shift = uint(64 - bits.TrailingZeros(uint(size)))
	s.n = 0
	for _, pc := range old {
		if pc != 0 {
			s.add(pc)
		}
	}
}

// Total returns the total number of branches observed (all kinds).
func (s *Stats) Total() int { return s.total }

// TakenRatio returns the fraction of conditional branches that were
// taken, or 0 for an empty trace.
func (s *Stats) TakenRatio() float64 {
	if s.Dynamic == 0 {
		return 0
	}
	return float64(s.TakenCond) / float64(s.Dynamic)
}

// Measure drains a Source a block at a time and returns its
// statistics.
func Measure(src Source) (*Stats, error) {
	st := NewStats()
	err := Blocks(src, func(blk []Branch) error {
		st.observe(blk)
		return nil
	})
	return st, err
}

// Legacy varint format (read-only)
//
// Traces written before the block-columnar format (columnar.go) use a
// fixed 16-byte header followed by one varint-compressed record per
// branch:
//
//	header: magic "GSKT" | version u8 | reserved [11]byte
//	record: uvarint(pcDelta<<2 | taken<<1 | kind)
//
// pcDelta is the zig-zag encoded difference from the previous PC.
// Nothing writes this format any more; Mapped's varint arm (MapFile,
// DecodeBytes) still reads it, so old files and uploads keep working.

var magic = [4]byte{'G', 'S', 'K', 'T'}

const formatVersion = 1

func zigzag(d int64) uint64 { return uint64(d<<1) ^ uint64(d>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Text format
//
// One record per line: "<hex pc> <T|N> <c|u>", e.g. "1a2f T c".
// Comment lines start with '#'. The text format exists for debugging
// and for hand-written fixture traces in tests.

// WriteText writes branches from src to w in the text format, reading
// src a block at a time.
func WriteText(w io.Writer, src Source) error {
	bw := bufio.NewWriter(w)
	var line []byte
	err := Blocks(src, func(blk []Branch) error {
		for _, b := range blk {
			dir := byte('N')
			if b.Taken {
				dir = 'T'
			}
			kind := byte('c')
			if b.Kind == Unconditional {
				kind = 'u'
			}
			line = append(strconv.AppendUint(line[:0], b.PC, 16), ' ', dir, ' ', kind, '\n')
			if _, err := bw.Write(line); err != nil {
				return fmt.Errorf("trace: writing text record: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// ReadText parses a text-format trace.
func ReadText(r io.Reader) ([]Branch, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var out []Branch
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			return nil, fmt.Errorf("trace: line %d: want 3 fields, got %d", lineNo, len(fields))
		}
		pc, err := strconv.ParseUint(fields[0], 16, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: bad pc %q: %w", lineNo, fields[0], err)
		}
		var taken bool
		switch fields[1] {
		case "T":
			taken = true
		case "N":
			taken = false
		default:
			return nil, fmt.Errorf("trace: line %d: bad direction %q", lineNo, fields[1])
		}
		var kind Kind
		switch fields[2] {
		case "c":
			kind = Conditional
		case "u":
			kind = Unconditional
		default:
			return nil, fmt.Errorf("trace: line %d: bad kind %q", lineNo, fields[2])
		}
		if kind == Unconditional && !taken {
			return nil, fmt.Errorf("trace: line %d: unconditional branch marked not-taken", lineNo)
		}
		out = append(out, Branch{PC: pc, Taken: taken, Kind: kind})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: scanning: %w", err)
	}
	return out, nil
}
