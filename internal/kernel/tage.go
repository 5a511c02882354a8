package kernel

import (
	"math/bits"
	"sync"

	"gskew/internal/predictor"
)

// TAGE kernel.
//
// TAGE's index and tag hashes are an address part XORed with a
// history part, and the history part — XOR-folds of the history
// register — is GF(2)-linear in the history, like the skewing
// functions of lut.go. Over this repository's histories of at most 30
// bits, the history part of every component's hashes therefore
// factors exactly over three 10-bit chunks of the register:
//
//	hash_i(h) = row0[h & 1023][i] ^ row1[h>>10 & 1023][i] ^ row2[h>>20][i]
//
// One row entry holds component i's index fold in its low 32 bits and
// its tag hash above them. Rows interleave the components, padded to
// a power-of-two stride, so one branch reads at most three cache
// lines of hash tables however many components it resolves.

// tageChunk is the history-chunk width of a row table.
const tageChunk = 10

// maxTAGEComps bounds the tagged components the kernel resolves,
// matching the predictor's own limit.
const maxTAGEComps = 8

// tageRows are the three chunk tables of one TAGE geometry. Entry
// [x<<stride | i] of rowsC is component i's hash of chunk value x.
// Chunks past the longest history hold one all-zero row.
type tageRows struct {
	r [3][]uint64
}

// tageRowKey identifies a geometry's rows: they depend on the widths,
// the history lengths and the runner's history mask.
type tageRowKey struct {
	n, tagBits uint
	lens       [maxTAGEComps]uint
	comps      int
	histMask   uint64
}

// tageRowCache shares rows across kernels of one geometry, as lutCache
// shares skew LUTs. Only exact (untampered) hashes are cached.
var tageRowCache sync.Map // tageRowKey -> *tageRows

// buildTAGERows tabulates st.HistHash per chunk value. Evaluating the
// predictor's own hash keeps a planted fold fault visible on the
// kernel path.
func buildTAGERows(st *predictor.TAGEStorage, histMask uint64, stride uint) *tageRows {
	rows := &tageRows{}
	for c := range rows.r {
		lo := uint(c * tageChunk)
		width := uint(0)
		if hb := uint(bits.Len64(histMask)); hb > lo {
			width = min(hb-lo, tageChunk)
		}
		n := uint64(1) << width
		tab := make([]uint64, n<<stride)
		for x := uint64(1); x < n; x++ {
			h := x << lo & histMask
			for i := range st.Lens {
				idx, tag := st.HistHash(h, i)
				tab[x<<stride|uint64(i)] = idx | tag<<32
			}
		}
		rows.r[c] = tab
	}
	return rows
}

func compileTAGE(t *predictor.TAGE, runnerMask uint64) (Kernel, bool) {
	st := t.KernelStorage()
	nt := len(st.Lens)
	// A row entry packs the index fold below bit 32 and the tag hash
	// above it.
	if nt == 0 || nt > maxTAGEComps || st.N > 32 || st.TagBits > 31 {
		return nil, false
	}
	maxLen := uint(0)
	for _, l := range st.Lens {
		maxLen = max(maxLen, l)
	}
	if maxLen > 3*tageChunk {
		return nil, false
	}
	histMask := runnerMask & (uint64(1)<<maxLen - 1)
	stride := uint(bits.Len(uint(nt - 1)))
	var rows *tageRows
	if st.Exact {
		key := tageRowKey{n: st.N, tagBits: st.TagBits, comps: nt, histMask: histMask}
		copy(key.lens[:], st.Lens)
		if v, ok := tageRowCache.Load(key); ok {
			rows = v.(*tageRows)
		} else {
			v, _ := tageRowCache.LoadOrStore(key, buildTAGERows(&st, histMask, stride))
			rows = v.(*tageRows)
		}
	} else {
		rows = buildTAGERows(&st, histMask, stride)
	}
	k := &tageKernel{
		base:      st.Base,
		nt:        nt,
		r0:        rows.r[0],
		r1:        rows.r[1],
		r2:        rows.r[2],
		stride:    stride,
		histMask:  histMask,
		idxMask:   uint64(1)<<st.N - 1,
		tagMask:   uint64(1)<<st.TagBits - 1,
		baseAut:   automatonFor(2),
		ctrAut:    automatonFor(st.CtrBits),
		weakNT:    uint8((1<<st.CtrBits - 1) / 2),
		updates:   st.Updates,
		agePeriod: st.AgePeriod,
	}
	copy(k.tags[:], st.Tags)
	copy(k.ctrs[:], st.Ctrs)
	copy(k.us[:], st.Us)
	return k, true
}

// tageKernel is a compiled TAGE predictor. Every slice and the ageing
// counter alias the predictor's own storage.
type tageKernel struct {
	base       []uint8
	tags       [maxTAGEComps][]uint32
	ctrs, us   [maxTAGEComps][]uint8
	nt         int
	r0, r1, r2 []uint64 // chunk row tables (see tageRows)
	stride     uint     // log2 of the row width in entries
	histMask   uint64   // runner mask ∧ longest history
	idxMask    uint64
	tagMask    uint64
	baseAut    automaton // 2-bit base counters
	ctrAut     automaton // tagged-component counters
	weakNT     uint8     // weakly-not-taken state; weakly taken is one above
	updates    *int
	agePeriod  int
}

// Step runs one fused step through StepBatch, so both share one
// definition: the prediction is the outcome unless it mispredicted.
func (k *tageKernel) Step(pc, hist uint64, taken bool) bool {
	s := [1]Step{{PC: pc, Hist: hist, Taken: taken}}
	return (k.StepBatch(s[:]) == 0) == taken
}

// StepBatch resolves and trains each step exactly as TAGE.Step does:
// the longest matching component provides the prediction (the base
// table when none matches), the provider's usefulness moves when it
// disagreed with the alternate prediction, a mispredict allocates in
// the first longer component with zero usefulness (or decays them
// all), and every agePeriod updates halve every usefulness counter.
func (k *tageKernel) StepBatch(steps []Step) int {
	base := k.base
	r0, r1, r2 := k.r0, k.r1, k.r2
	if len(base) == 0 || len(r0) == 0 || len(r1) == 0 || len(r2) == 0 {
		return 0
	}
	bm := k.idxMask & uint64(len(base)-1)
	rm0, rm1, rm2 := uint64(len(r0)-1), uint64(len(r1)-1), uint64(len(r2)-1)
	stride, histMask, idxMask, tagMask := k.stride&63, k.histMask, k.idxMask, k.tagMask
	nt := min(k.nt, maxTAGEComps)
	baseAut, ctrAut := &k.baseAut, &k.ctrAut
	updates := *k.updates
	var idx [maxTAGEComps]uint64
	var tag [maxTAGEComps]uint32
	mis := 0
	for si := range steps {
		s := &steps[si]
		pc, h := s.PC, s.Hist&histMask
		x0 := (h & (1<<tageChunk - 1)) << stride
		x1 := (h >> tageChunk & (1<<tageChunk - 1)) << stride
		x2 := (h >> (2 * tageChunk) & (1<<tageChunk - 1)) << stride
		t := bit(s.Taken)
		// Resolve from the longest component down; components below
		// the alternate are never read or written.
		prov, alt := -1, -1
		for i := nt - 1; i >= 0; i-- {
			ui := uint64(i)
			f := r0[(x0|ui)&rm0] ^ r1[(x1|ui)&rm1] ^ r2[(x2|ui)&rm2]
			j := (pc ^ pc>>(ui+1) ^ f) & idxMask
			tg := uint32((pc ^ f>>32) & tagMask)
			idx[i], tag[i] = j, tg
			if k.tags[i][j] == tg {
				if prov >= 0 {
					alt = i
					break
				}
				prov = i
			}
		}
		bi := pc & bm
		sb := base[bi]
		final := baseAut.bit[sb]
		altPred := final
		if alt >= 0 {
			altPred = ctrAut.bit[k.ctrs[alt][idx[alt]]]
		}
		if prov >= 0 {
			ctrs, j := k.ctrs[prov], idx[prov]
			sc := ctrs[j]
			final = ctrAut.bit[sc]
			if final != altPred {
				us := k.us[prov]
				u := us[j]
				if final == t {
					if u < 3 {
						us[j] = u + 1
					}
				} else if u > 0 {
					us[j] = u - 1
				}
			}
			ctrs[j] = ctrAut.next[uint16(sc)<<1|uint16(t)]
		} else {
			base[bi] = baseAut.next[uint16(sb)<<1|uint16(t)]
		}
		if final != t {
			mis++
			k.allocate(prov, nt, &idx, &tag, t)
		}
		updates++
		if updates == k.agePeriod {
			updates = 0
			for i := range nt {
				us := k.us[i]
				for e := range us {
					us[e] >>= 1
				}
			}
		}
	}
	*k.updates = updates
	return mis
}

// allocate claims an entry for a mispredicted branch in the first
// component longer than the provider whose usefulness is zero, or,
// when none is free, decays the usefulness of every candidate.
func (k *tageKernel) allocate(prov, nt int, idx *[maxTAGEComps]uint64, tag *[maxTAGEComps]uint32, t uint8) {
	for j := prov + 1; j < nt; j++ {
		if k.us[j][idx[j]] == 0 {
			k.tags[j][idx[j]] = tag[j]
			k.ctrs[j][idx[j]] = k.weakNT + t
			return
		}
	}
	for j := prov + 1; j < nt; j++ {
		k.us[j][idx[j]]--
	}
}
