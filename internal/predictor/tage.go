package predictor

import (
	"fmt"

	"gskew/internal/counter"
)

// This file implements TAGE (Seznec & Michaud, "A case for (partially)
// TAgged GEometric history length branch prediction", JILP 2006), the
// modern descendant of the paper's aliasing analysis: where skewing
// spreads conflicting branches across banks, TAGE removes the conflict
// outright by tagging each history-indexed entry and backing it with a
// chain of components whose history lengths grow geometrically.
//
// The organisation here is the standard one:
//
//   - a tag-less base bimodal table of 2^n 2-bit counters;
//   - T tagged components, each 2^n entries of {tag, ctr, u}: a
//     tag-bit partial tag, a ctr-bit signed-direction counter and a
//     2-bit usefulness counter;
//   - component i (1-based) sees the most recent L_i history bits,
//     L_i = min(k, kmin*2^(i-1)) — a ratio-2 geometric series capped
//     at the spec's k (integer arithmetic only, so the independent
//     refmodel transcription cannot disagree by a rounding mode);
//   - long histories enter the index and tag hashes through folding
//     (FoldHistory): the L-bit history is cut into width-sized chunks
//     which are XORed together;
//   - prediction comes from the matching component with the longest
//     history (the provider), falling back to the base table;
//   - on a mispredict a new entry is allocated in a longer component
//     whose usefulness has decayed to zero, and usefulness counters
//     age periodically so stale entries eventually free up.
//
// The history halves of the index and tag hashes are GF(2)-linear
// in the history, so internal/kernel compiles the family: it tabulates
// them per history chunk (through this predictor's own fold, exposed
// with the shared storage by KernelStorage) and runs resolve, train,
// allocate and age over the same arrays.

// tageMaxTables bounds the tagged-component chain; resolve uses
// fixed-size scratch arrays so a prediction allocates nothing.
const tageMaxTables = 8

// tageAgePeriod is the usefulness-ageing period: every tageAgePeriod
// Update calls, every usefulness counter is halved. The period is part
// of the observable specification (refmodel transcribes the same
// number) and is short enough that verification traces exercise it.
const tageAgePeriod = 8192

// tageBank is one tagged component: parallel arrays of partial tags,
// direction counters and 2-bit usefulness counters.
type tageBank struct {
	tags []uint32
	ctrs *counter.Table
	us   []uint8
}

// TAGE is the tagged geometric-history-length predictor.
type TAGE struct {
	n       uint   // index width: 2^n entries per table (base and tagged)
	k       uint   // longest history length L_T
	kmin    uint   // shortest tagged history length L_1
	tagBits uint   // partial-tag width
	ctrBits uint   // tagged-component counter width
	lens    []uint // lens[i] is L_{i+1}
	base    *counter.Table
	comps   []tageBank
	updates int
	// foldSkew is 0 in a correct predictor; TamperTAGEFold sets it to 1
	// for the verification selftest, shifting each folded-history chunk
	// by width-1 instead of width.
	foldSkew uint
}

// newTAGE is the implementation behind Spec.New.
func newTAGE(n, k, kmin uint, tables int, tagBits, ctrBits uint) (*TAGE, error) {
	if n < 2 || n > 26 {
		return nil, fmt.Errorf("predictor: tage index width %d out of range [2,26]", n)
	}
	if k > 30 {
		return nil, fmt.Errorf("predictor: history length %d out of range [0,30]", k)
	}
	if kmin < 1 || kmin > 30 {
		return nil, fmt.Errorf("predictor: tage kmin %d out of range [1,30]", kmin)
	}
	if tables < 1 || tables > tageMaxTables {
		return nil, fmt.Errorf("predictor: tage tagged-component count %d out of range [1,%d]", tables, tageMaxTables)
	}
	if tagBits < 2 || tagBits > 16 {
		return nil, fmt.Errorf("predictor: tage tag width %d out of range [2,16]", tagBits)
	}
	t := &TAGE{n: n, k: k, kmin: kmin, tagBits: tagBits, ctrBits: ctrBits}
	for i := 0; i < tables; i++ {
		// L_{i+1} = min(k, kmin * 2^i): ratio-2 geometric, capped at k.
		l := kmin << uint(i)
		if l > k || l>>uint(i) != kmin { // cap, shift-overflow safe
			l = k
		}
		t.lens = append(t.lens, l)
		t.comps = append(t.comps, tageBank{
			tags: make([]uint32, 1<<n),
			ctrs: counter.NewTable(1<<n, ctrBits),
			us:   make([]uint8, 1<<n),
		})
	}
	t.base = counter.NewTable(1<<n, 2)
	return t, nil
}

// FoldHistory is the folded-history hash used by the TAGE index and
// tag functions: the low length bits of hist are cut into width-bit
// chunks (LSB first) and XORed together, so every history bit
// participates in a width-bit result. length must be at most 64 and
// width at least 1.
func FoldHistory(hist uint64, length, width uint) uint64 {
	if width < 1 {
		panic("predictor: fold width must be >= 1")
	}
	return foldWith(hist, length, width, width)
}

// foldWith folds with an explicit chunk step, the hook the selftest
// fault uses; step == width is the correct fold.
func foldWith(hist uint64, length, width, step uint) uint64 {
	v := hist
	if length < 64 {
		v &= uint64(1)<<length - 1
	}
	if step < 1 {
		step = 1
	}
	mask := uint64(1)<<width - 1
	if width >= 64 {
		mask = ^uint64(0)
	}
	var r uint64
	for v != 0 {
		r ^= v & mask
		v >>= step
	}
	return r
}

// fold applies the predictor's fold (correct, or skewed by the planted
// selftest fault).
func (t *TAGE) fold(hist uint64, length, width uint) uint64 {
	return foldWith(hist, length, width, width-t.foldSkew)
}

// index returns component i's table index: branch address bits spread
// per component XORed with the folded history.
func (t *TAGE) index(addr, hist uint64, i int) uint64 {
	return (addr ^ addr>>uint(i+1) ^ t.indexFold(hist, i)) & (uint64(1)<<t.n - 1)
}

// tag returns component i's partial tag: the address XORed with two
// differently-sized history folds (the second shifted up one bit, the
// standard trick that decorrelates tag and index aliasing).
func (t *TAGE) tag(addr, hist uint64, i int) uint64 {
	return (addr ^ t.tagFold(hist, i)) & (uint64(1)<<t.tagBits - 1)
}

// indexFold and tagFold are the history halves of component i's index
// and tag hashes.
func (t *TAGE) indexFold(hist uint64, i int) uint64 { return t.fold(hist, t.lens[i], t.n) }

func (t *TAGE) tagFold(hist uint64, i int) uint64 {
	return t.fold(hist, t.lens[i], t.tagBits) ^ t.fold(hist, t.lens[i], t.tagBits-1)<<1
}

// histHash returns both history halves, for KernelStorage.
func (t *TAGE) histHash(hist uint64, i int) (idx, tag uint64) {
	return t.indexFold(hist, i), t.tagFold(hist, i)
}

// tageRef is the resolved per-reference picture: indices, tags, the
// provider/alternate components and their predictions. Fixed-size
// arrays keep resolution allocation-free.
type tageRef struct {
	idx, tag      [tageMaxTables]uint64
	baseIdx       uint64
	provider, alt int // component indices, -1 = base
	providerPred  bool
	altPred       bool
	final         bool
}

// resolve computes the whole prediction picture without mutating
// state.
func (t *TAGE) resolve(addr, hist uint64) tageRef {
	r := tageRef{provider: -1, alt: -1}
	r.baseIdx = addr & (uint64(1)<<t.n - 1)
	for i := range t.comps {
		r.idx[i] = t.index(addr, hist, i)
		r.tag[i] = t.tag(addr, hist, i)
	}
	for i := len(t.comps) - 1; i >= 0; i-- {
		if uint64(t.comps[i].tags[r.idx[i]]) == r.tag[i] {
			if r.provider < 0 {
				r.provider = i
			} else {
				r.alt = i
				break
			}
		}
	}
	basePred := t.base.Predict(r.baseIdx)
	r.altPred = basePred
	if r.alt >= 0 {
		r.altPred = t.comps[r.alt].ctrs.Predict(r.idx[r.alt])
	}
	r.final = basePred
	if r.provider >= 0 {
		r.providerPred = t.comps[r.provider].ctrs.Predict(r.idx[r.provider])
		r.final = r.providerPred
	}
	return r
}

// Predict implements Predictor: the longest matching tagged component
// wins; the base table is the fallback. Predict does not change state.
func (t *TAGE) Predict(addr, hist uint64) bool {
	return t.resolve(addr, hist).final
}

// Update implements Predictor: train the provider (or the base), steer
// the provider's usefulness by whether it beat the alternate
// prediction, allocate a longer entry on a mispredict, and age all
// usefulness counters periodically.
func (t *TAGE) Update(addr, hist uint64, taken bool) {
	r := t.resolve(addr, hist)
	t.update(r, taken)
}

// Step implements Stepper: one resolution serves both the prediction
// and the training.
func (t *TAGE) Step(addr, hist uint64, taken bool) bool {
	r := t.resolve(addr, hist)
	t.update(r, taken)
	return r.final
}

func (t *TAGE) update(r tageRef, taken bool) {
	if r.provider >= 0 {
		c := &t.comps[r.provider]
		if r.providerPred != r.altPred {
			u := c.us[r.idx[r.provider]]
			if r.providerPred == taken {
				if u < 3 {
					c.us[r.idx[r.provider]] = u + 1
				}
			} else if u > 0 {
				c.us[r.idx[r.provider]] = u - 1
			}
		}
		c.ctrs.Update(r.idx[r.provider], taken)
	} else {
		t.base.Update(r.baseIdx, taken)
	}
	if r.final != taken && r.provider < len(t.comps)-1 {
		allocated := false
		for j := r.provider + 1; j < len(t.comps); j++ {
			c := &t.comps[j]
			if c.us[r.idx[j]] == 0 {
				c.tags[r.idx[j]] = uint32(r.tag[j])
				init := counter.WeaklyNotTaken(t.ctrBits)
				if taken {
					init = counter.WeaklyTaken(t.ctrBits)
				}
				c.ctrs.Set(r.idx[j], init.Value())
				allocated = true
				break
			}
		}
		if !allocated {
			for j := r.provider + 1; j < len(t.comps); j++ {
				t.comps[j].us[r.idx[j]]--
			}
		}
	}
	t.updates++
	if t.updates == tageAgePeriod {
		t.updates = 0
		for i := range t.comps {
			us := t.comps[i].us
			for e := range us {
				us[e] >>= 1
			}
		}
	}
}

// Name implements Predictor.
func (t *TAGE) Name() string { return "tage" }

// HistoryBits implements Predictor: the longest component length.
func (t *TAGE) HistoryBits() uint { return t.k }

// StorageBits implements Predictor: the base table plus, per tagged
// entry, the tag, the direction counter and the 2-bit usefulness
// counter.
func (t *TAGE) StorageBits() int {
	perEntry := int(t.tagBits + t.ctrBits + 2)
	return t.base.StorageBits() + len(t.comps)*(1<<t.n)*perEntry
}

// Reset implements Predictor.
func (t *TAGE) Reset() {
	t.base.Reset()
	for i := range t.comps {
		c := &t.comps[i]
		c.ctrs.Reset()
		for e := range c.tags {
			c.tags[e] = 0
			c.us[e] = 0
		}
	}
	t.updates = 0
}

// String describes the configuration.
func (t *TAGE) String() string {
	return fmt.Sprintf("tage(n=%d, k=%d, kmin=%d, tables=%d, tag=%d, ctr=%d)",
		t.n, t.k, t.kmin, len(t.comps), t.tagBits, t.ctrBits)
}

// Spec implements Speccer.
func (t *TAGE) Spec() Spec {
	return Spec{Family: "tage", N: t.n, Hist: t.k, HistMin: t.kmin,
		Tables: len(t.comps), Tag: t.tagBits, Ctr: t.ctrBits}.Normalize()
}

// TAGEStorage is what a compiled TAGE kernel shares with its
// predictor: the storage itself (so a kernel-driven run leaves the
// predictor in exactly the state the interface path would, and Reset
// resets the kernel too) and the history hashes the kernel tabulates.
type TAGEStorage struct {
	// N is the index width; TagBits and CtrBits are the tagged
	// components' tag and counter widths (the base counters are 2-bit).
	N, TagBits, CtrBits uint
	// Lens[i] is component i's history length.
	Lens []uint
	// Base holds the base table's counter cells; Tags, Ctrs and Us
	// hold each component's tags, counter cells and usefulness
	// counters.
	Base []uint8
	Tags [][]uint32
	Ctrs [][]uint8
	Us   [][]uint8
	// Updates points at the ageing counter, which every AgePeriod
	// updates halves every usefulness counter.
	Updates   *int
	AgePeriod int
	// HistHash returns the history halves of component i's index hash
	// (XORed with addr ^ addr>>(i+1)) and tag hash (XORed with addr),
	// both GF(2)-linear in hist, computed by the predictor's own fold.
	HistHash func(hist uint64, i int) (idx, tag uint64)
	// Exact is false when a planted selftest fault alters the fold,
	// so tables built from HistHash must not be shared by geometry.
	Exact bool
}

// KernelStorage exposes the predictor's storage and hashes, for the
// compiled kernel layer (which shares them).
func (t *TAGE) KernelStorage() TAGEStorage {
	s := TAGEStorage{
		N: t.n, TagBits: t.tagBits, CtrBits: t.ctrBits,
		Lens:      t.lens,
		Base:      t.base.Cells(),
		Updates:   &t.updates,
		AgePeriod: tageAgePeriod,
		HistHash:  t.histHash,
		Exact:     t.foldSkew == 0,
	}
	for i := range t.comps {
		c := &t.comps[i]
		s.Tags = append(s.Tags, c.tags)
		s.Ctrs = append(s.Ctrs, c.ctrs.Cells())
		s.Us = append(s.Us, c.us)
	}
	return s
}

// TamperTAGEFold plants an off-by-one into p's folded-history
// rotation (chunks advance by width-1 bits instead of width), for the
// differential harness's fault-injection selftest. It reports whether
// p is a TAGE predictor the fault applies to.
func TamperTAGEFold(p Predictor) bool {
	t, ok := p.(*TAGE)
	if !ok {
		return false
	}
	t.foldSkew = 1
	return true
}
