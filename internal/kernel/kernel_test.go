package kernel

import (
	"testing"

	"gskew/internal/counter"
	"gskew/internal/predictor"
	"gskew/internal/rng"
	"gskew/internal/skewfn"
)

// ref builds a fresh interface-path predictor for each case under test.
type compiled struct {
	name string
	hist uint // runner history width driven through both paths
	mk   func() predictor.Predictor
}

func cases() []compiled {
	return []compiled{
		{"bimodal", 0, func() predictor.Predictor { return predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 8, Ctr: 2}) }},
		{"bimodal-1bit", 0, func() predictor.Predictor { return predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 6, Ctr: 1}) }},
		{"gshare-short", 10, func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "gshare", N: 10, Hist: 6, Ctr: 2})
		}},
		{"gshare-equal", 10, func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "gshare", N: 10, Hist: 10, Ctr: 2})
		}},
		{"gshare-runner-short", 5, func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "gshare", N: 10, Hist: 8, Ctr: 2})
		}},
		{"gshare-fold", 14, func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "gshare", N: 6, Hist: 14, Ctr: 2})
		}},
		{"gselect", 4, func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "gselect", N: 10, Hist: 4, Ctr: 2})
		}},
		{"gselect-degenerate", 12, func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "gselect", N: 8, Hist: 12, Ctr: 1})
		}},
		{"gskewed-partial", 8, func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{BankBits: 6, HistoryBits: 8})
		}},
		{"gskewed-total", 8, func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{
				BankBits: 6, HistoryBits: 8, Policy: predictor.TotalUpdate,
			})
		}},
		{"gskewed-1bit", 10, func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{BankBits: 7, HistoryBits: 10, CounterBits: 1})
		}},
		{"egskew", 10, func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{BankBits: 7, HistoryBits: 10, Enhanced: true})
		}},
		{"2bcgskew", 12, func() predictor.Predictor {
			return predictor.MustSpec(predictor.Spec{Family: "2bcgskew", N: 8, HistShort: 5, Hist: 12})
		}},
		{"gskewed-5bank", 10, func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{Banks: 5, BankBits: 7, HistoryBits: 10})
		}},
		{"gskewed-7bank-total-3bit", 16, func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{
				Banks: 7, BankBits: 6, HistoryBits: 16, CounterBits: 3, Policy: predictor.TotalUpdate,
			})
		}},
		{"gskewed-5bank-4bit", 9, func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{Banks: 5, BankBits: 6, HistoryBits: 9, CounterBits: 4})
		}},
		{"gskewed-9bank-total", 12, func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{
				Banks: 9, BankBits: 5, HistoryBits: 12, Policy: predictor.TotalUpdate,
			})
		}},
		{"gskewed-shh1", 8, func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{BankBits: 7, HistoryBits: 8, SharedHysteresis: 1})
		}},
		{"egskew-shh2-total", 10, func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{
				BankBits: 6, HistoryBits: 10, SharedHysteresis: 2, Enhanced: true, Policy: predictor.TotalUpdate,
			})
		}},
		{"gskewed-shh8-wider-than-bank", 6, func() predictor.Predictor {
			return predictor.MustGSkewed(predictor.Config{BankBits: 4, HistoryBits: 6, SharedHysteresis: 8})
		}},
	}
}

// TestKernelMatchesInterfacePath: for every compiled family, a kernel
// and the interface Predict/Update pair, driven over the same
// randomized (pc, hist, taken) stream, must agree on every prediction
// and leave the underlying tables identical. The kernel is compiled
// from a SECOND predictor instance so the two paths train separate
// storage. Each case is driven twice: step by step through Step, and
// through StepBatch in blocks of random length with the raw,
// unmasked history a wider shared register would hold.
func TestKernelMatchesInterfacePath(t *testing.T) {
	for _, tc := range cases() {
		t.Run(tc.name, func(t *testing.T) {
			iface := tc.mk()
			kp := tc.mk()
			kern, ok := Compile(kp, tc.hist)
			if !ok {
				t.Fatalf("Compile(%s) not supported", iface.Name())
			}
			r := rng.NewXoshiro256(rng.Mix64(uint64(len(tc.name))))
			mask := uint64(1)<<tc.hist - 1
			hist := uint64(0)
			for i := 0; i < 60000; i++ {
				pc := r.Uint64() & 0x3fff
				taken := r.Uint64()&3 != 0
				ip := iface.Predict(pc, hist)
				iface.Update(pc, hist, taken)
				if got := kern.Step(pc, hist, taken); got != ip {
					t.Fatalf("step %d (pc=%#x hist=%#x taken=%v): interface predicts %v, kernel %v",
						i, pc, hist, taken, ip, got)
				}
				hist = (hist<<1 | b2u(taken)) & mask
			}
			requireSameBanks(t, "Step", kern, iface, tc.hist)

			checkBatchPath(t, tc, r)
		})
	}
}

// batchLengths are the block lengths checkBatchPath draws from: one
// step, a sub-word block, a full simulator block and odd sizes that
// straddle it; 0 stands for a random length in [1, 5000].
var batchLengths = []int{1, 63, 64, 4096, 4097, 0}

// checkBatchPath drives tc through StepBatch in blocks of random
// length against a fresh interface-path twin, requiring equal
// mispredict counts per block and identical tables afterwards.
func checkBatchPath(t *testing.T, tc compiled, r *rng.Xoshiro256) {
	t.Helper()
	iface, kp := tc.mk(), tc.mk()
	kern, ok := Compile(kp, tc.hist)
	if !ok {
		t.Fatalf("Compile(%s) not supported", iface.Name())
	}
	mask := uint64(1)<<tc.hist - 1
	raw := uint64(0) // an unmasked 64-bit register; the kernel masks it
	steps := make([]Step, 0, 5000)
	for done := 0; done < 60000; {
		n := batchLengths[r.Uint64()%uint64(len(batchLengths))]
		if n == 0 {
			n = 1 + int(r.Uint64()%5000)
		}
		steps = steps[:0]
		want := 0
		for range n {
			pc := r.Uint64() & 0x3fff
			taken := r.Uint64()&3 != 0
			if iface.Predict(pc, raw&mask) != taken {
				want++
			}
			iface.Update(pc, raw&mask, taken)
			steps = append(steps, Step{PC: pc, Hist: raw, Taken: taken})
			raw = raw<<1 | b2u(taken)
		}
		if got := kern.StepBatch(steps); got != want {
			t.Fatalf("block of %d at step %d: StepBatch counted %d mispredicts, interface %d", n, done, got, want)
		}
		done += n
	}
	requireSameBanks(t, "StepBatch", kern, iface, tc.hist)
}

// requireSameBanks compares the tables a kernel trained with those of
// an interface-path twin, read through the twin's own compiled kernel.
func requireSameBanks(t *testing.T, path string, kern Kernel, twin predictor.Predictor, hist uint) {
	t.Helper()
	tk, ok := Compile(twin, hist)
	if !ok {
		t.Fatalf("Compile(%s) not supported", twin.Name())
	}
	got, want := banksOf(t, kern), banksOf(t, tk)
	for b := range want {
		for i := range want[b] {
			if got[b][i] != want[b][i] {
				t.Fatalf("%s path: bank %d cell %d is %d, interface path has %d", path, b, i, got[b][i], want[b][i])
			}
		}
	}
}

// banksOf returns a counter-table kernel's banks in a fixed order
// (single-table kernels: one bank; skewed: banks 0..M-1, and a
// shared-hysteresis skew's prediction bits then hysteresis bits;
// 2Bc-gskew: BIM, G0, G1, META). They alias the predictor's own
// storage.
func banksOf(t *testing.T, k Kernel) [][]uint8 {
	t.Helper()
	switch k := k.(type) {
	case *bimodalKernel:
		return [][]uint8{k.cells}
	case *gshareKernel:
		return [][]uint8{k.cells}
	case *gselectKernel:
		return [][]uint8{k.cells}
	case *skewKernel:
		return [][]uint8{k.b0, k.b1, k.b2}
	case *mbankKernel:
		return k.banks
	case *splitSkewKernel:
		return [][]uint8{k.p0, k.p1, k.p2, k.h0, k.h1, k.h2}
	case *tbcKernel:
		return [][]uint8{k.bim, k.g0, k.g1, k.meta}
	}
	t.Fatalf("kernel %T has no counter banks", k)
	return nil
}

// TestKernelSharesStorage: a kernel trains the predictor's own tables,
// so after a kernel-driven stream the predictor's interface Predict
// agrees with a twin trained through the interface.
func TestKernelSharesStorage(t *testing.T) {
	mk := func() *predictor.GSkewed {
		return predictor.MustGSkewed(predictor.Config{BankBits: 6, HistoryBits: 6})
	}
	viaKernel, viaIface := mk(), mk()
	kern, ok := Compile(viaKernel, 6)
	if !ok {
		t.Fatal("gskewed did not compile")
	}
	r := rng.NewXoshiro256(7)
	hist := uint64(0)
	for i := 0; i < 20000; i++ {
		pc := r.Uint64() & 0xfff
		taken := r.Uint64()&1 == 0
		kern.Step(pc, hist, taken)
		viaIface.Predict(pc, hist)
		viaIface.Update(pc, hist, taken)
		hist = (hist<<1 | b2u(taken)) & 0x3f
	}
	Invalidate(viaKernel)
	for i := 0; i < 2000; i++ {
		pc := r.Uint64() & 0xfff
		h := r.Uint64() & 0x3f
		if viaKernel.Predict(pc, h) != viaIface.Predict(pc, h) {
			t.Fatalf("post-run state differs at pc=%#x hist=%#x", pc, h)
		}
	}
}

// TestCompileRejectsUncompilableShapes: every skewed shape the
// experiments use compiles — five- and seven-bank skews to the M-bank
// kernel, shared-hysteresis banks to their own kernel — and neither
// lowers to a bitsliced lane; organisations outside the kernel
// families must fall back rather than miscompile.
func TestCompileRejectsUncompilableShapes(t *testing.T) {
	fiveBank := predictor.MustGSkewed(predictor.Config{Banks: 5, BankBits: 6, HistoryBits: 6})
	k, ok := Compile(fiveBank, 6)
	if _, isM := k.(*mbankKernel); !ok || !isM {
		t.Errorf("5-bank gskewed compiled to %T (ok %v), want *mbankKernel", k, ok)
	}
	if _, ok := lower64(k); ok {
		t.Error("5-bank kernel lowered to a bitsliced lane")
	}
	shared := predictor.MustGSkewed(predictor.Config{BankBits: 6, HistoryBits: 6, SharedHysteresis: 2})
	k, ok = Compile(shared, 6)
	if _, isSplit := k.(*splitSkewKernel); !ok || !isSplit {
		t.Errorf("shared-hysteresis gskewed compiled to %T (ok %v), want *splitSkewKernel", k, ok)
	}
	if _, ok := lower64(k); ok {
		t.Error("shared-hysteresis kernel lowered to a bitsliced lane")
	}
	sharedWide := predictor.MustGSkewed(predictor.Config{Banks: 5, BankBits: 6, HistoryBits: 6, SharedHysteresis: 1})
	if _, ok := Compile(sharedWide, 6); ok {
		t.Error("5-bank shared-hysteresis gskewed compiled; the split kernel has three banks")
	}
	tooWide := predictor.MustGSkewed(predictor.Config{Banks: MaxSkewBanks + 2, BankBits: 6, HistoryBits: 6})
	if _, ok := Compile(tooWide, 6); ok {
		t.Errorf("%d-bank gskewed compiled; the packed LUT holds %d", MaxSkewBanks+2, MaxSkewBanks)
	}
	for w := uint(MaxSkewCtrBits + 1); w <= 8; w++ {
		for _, banks := range []int{3, 5} {
			wide := predictor.MustGSkewed(predictor.Config{Banks: banks, BankBits: 6, HistoryBits: 6, CounterBits: w, Enhanced: banks == 3 && w%2 == 0})
			if _, ok := Compile(wide, 6); ok {
				t.Errorf("%d-bank gskewed with %d-bit counters compiled; skewed kernels stop at %d bits", banks, w, MaxSkewCtrBits)
			}
		}
	}
	unal := predictor.NewUnaliased(8, 2)
	if _, ok := Compile(unal, 8); ok {
		t.Error("unaliased reference table compiled")
	}
	hyb := predictor.MustHybrid(predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 8, Ctr: 2}), predictor.MustSpec(predictor.Spec{Family: "gshare", N: 8, Hist: 6, Ctr: 2}), 8)
	if _, ok := Compile(hyb, 6); ok {
		t.Error("hybrid compiled")
	}
}

// TestMBankLUTsMatchSkewer: field k of an M-bank LUT entry pair is
// skewfn's bank-k function, exhaustively at small widths; a skewer
// with a planted rotation fault gets its own, different tables and
// leaves the cache exact.
func TestMBankLUTsMatchSkewer(t *testing.T) {
	for _, n := range []uint{2, 3, 5, 7} {
		for _, banks := range []int{5, 7, 9} {
			sk := skewfn.New(n)
			ls := mbankLUTsFor(sk, banks)
			size := uint64(1) << (2 * n)
			for v := uint64(0); v < size; v++ {
				a, b := (v&sk.Mask())*uint64(ls.words), (v>>n&sk.Mask())*uint64(ls.words)
				for k := 0; k < banks; k++ {
					w := uint64(k / 3)
					got := (ls.pa[a+w] ^ ls.pb[b+w]) >> (uint(k%3) * lutField) & (1<<lutField - 1)
					if want := sk.Index(k, v); got != want {
						t.Fatalf("n=%d banks=%d v=%#x: f%d lut %#x, skewer %#x", n, banks, v, k, got, want)
					}
				}
			}
		}
	}
	bad := skewfn.New(6)
	bad.TamperRotation()
	tampered, exact := mbankLUTsFor(bad, 5), mbankLUTsFor(skewfn.New(6), 5)
	if tampered == exact {
		t.Fatal("a tampered skewer shared the cached LUTs")
	}
	if v, _ := mbankLUTCache.Load(mbankKey{n: 6, banks: 5}); v != exact {
		t.Fatal("the cache holds a tampered LUT set")
	}
}

// TestLUTsMatchSkewer: the packed LUT pair reproduces the skewing
// functions exactly: field K of pa[v1] ^ pb[v2] is fK(v), for
// exhaustive small widths.
func TestLUTsMatchSkewer(t *testing.T) {
	for _, n := range []uint{2, 3, 6, 8} {
		sk := skewfn.New(n)
		ls := lutsFor(n)
		size := uint64(1) << (2 * n)
		for v := uint64(0); v < size; v++ {
			v1 := v & sk.Mask()
			v2 := v >> n & sk.Mask()
			pk := ls.pa[v1] ^ ls.pb[v2]
			for bank, want := range []uint64{sk.F0(v), sk.F1(v), sk.F2(v)} {
				if got := pk >> (uint(bank) * lutField) & (1<<lutField - 1); got != want {
					t.Fatalf("n=%d v=%#x: f%d lut %#x, skewer %#x", n, v, bank, got, want)
				}
			}
		}
	}
}

// TestAutomatonMatchesCounter: the 256-entry transition tables agree
// with the counter automaton for every width and reachable state.
func TestAutomatonMatchesCounter(t *testing.T) {
	for bits := uint(1); bits <= 8; bits++ {
		a := automatonFor(bits)
		max := uint8(1)<<bits - 1
		for s := uint8(0); ; s++ {
			c := counter.New(bits, s)
			if (a.bit[s] != 0) != c.Predict() {
				t.Fatalf("bits=%d state=%d: bit %d, counter %v", bits, s, a.bit[s], c.Predict())
			}
			if got, want := a.next[uint16(s)<<1|1], c.Update(true).Value(); got != want {
				t.Fatalf("bits=%d state=%d taken: next %d, counter %d", bits, s, got, want)
			}
			if got, want := a.next[uint16(s)<<1], c.Update(false).Value(); got != want {
				t.Fatalf("bits=%d state=%d not-taken: next %d, counter %d", bits, s, got, want)
			}
			if s == max {
				break
			}
		}
	}
}

// TestTamperLUTIsolatedFromCache: planting a fault must not poison the
// shared LUT cache used by honest kernels of the same geometry.
func TestTamperLUTIsolatedFromCache(t *testing.T) {
	mk := func() predictor.Predictor {
		return predictor.MustGSkewed(predictor.Config{BankBits: 6, HistoryBits: 6})
	}
	bad, _ := Compile(mk(), 6)
	if err := TamperLUT(bad, 1, 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	good, _ := Compile(mk(), 6)
	gk, bk := good.(*skewKernel), bad.(*skewKernel)
	if gk.pa[0] == bk.pa[0] {
		t.Fatal("tamper had no effect")
	}
	if gk.pa[0] != lutsFor(6).pa[0] {
		t.Fatal("tamper leaked into the shared LUT cache")
	}
	bm, _ := Compile(predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 8, Ctr: 2}), 0)
	if err := TamperLUT(bm, 0, 0, 0, 1); err == nil {
		t.Error("TamperLUT accepted a kernel without LUTs")
	}

	// Past bank 2: an M-bank kernel's fault lands in its bank's word
	// and field and leaves the shared set clean.
	mk5 := func() predictor.Predictor {
		return predictor.MustGSkewed(predictor.Config{Banks: 5, BankBits: 6, HistoryBits: 6})
	}
	bad5, _ := Compile(mk5(), 6)
	if err := TamperLUT(bad5, 4, 1, 3, 1); err != nil {
		t.Fatal(err)
	}
	good5, _ := Compile(mk5(), 6)
	gm, bm5 := good5.(*mbankKernel), bad5.(*mbankKernel)
	if got := gm.pb[3*2+1] ^ bm5.pb[3*2+1]; got != 1<<lutField {
		t.Fatalf("bank 4 fault flipped %#x, want bit %d of word 1", got, lutField)
	}
	if err := TamperLUT(bad5, 5, 0, 0, 1); err == nil {
		t.Error("TamperLUT accepted bank 5 of a 5-bank kernel")
	}
}

// TestStepBatchZeroAllocs is the allocation regression gate for the
// hot loop: a compiled kernel must process a prepared block with zero
// allocations per call.
func TestStepBatchZeroAllocs(t *testing.T) {
	steps := make([]Step, 4096)
	r := rng.NewXoshiro256(11)
	hist := uint64(0)
	for i := range steps {
		taken := r.Uint64()&1 == 0
		steps[i] = Step{PC: r.Uint64() & 0xffff, Hist: hist, Taken: taken}
		hist = hist<<1 | b2u(taken)
	}
	for _, tc := range cases() {
		t.Run(tc.name, func(t *testing.T) {
			kern, ok := Compile(tc.mk(), tc.hist)
			if !ok {
				t.Fatal("did not compile")
			}
			if allocs := testing.AllocsPerRun(10, func() { kern.StepBatch(steps) }); allocs != 0 {
				t.Errorf("StepBatch allocates %.1f objects per call, want 0", allocs)
			}
		})
	}
}

// TestStepBatchCountsMispredicts: the batch mispredict count equals a
// step-by-step tally.
func TestStepBatchCountsMispredicts(t *testing.T) {
	steps := make([]Step, 10000)
	r := rng.NewXoshiro256(13)
	hist := uint64(0)
	for i := range steps {
		taken := r.Uint64()&3 != 0
		steps[i] = Step{PC: r.Uint64() & 0x1fff, Hist: hist, Taken: taken}
		hist = hist<<1 | b2u(taken)
	}
	for _, tc := range cases() {
		batch, _ := Compile(tc.mk(), tc.hist)
		single, _ := Compile(tc.mk(), tc.hist)
		want := 0
		for i := range steps {
			if single.Step(steps[i].PC, steps[i].Hist, steps[i].Taken) != steps[i].Taken {
				want++
			}
		}
		if got := batch.StepBatch(steps); got != want {
			t.Errorf("%s: StepBatch counted %d mispredicts, stepwise %d", tc.name, got, want)
		}
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
