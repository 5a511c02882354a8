package predictor

import (
	"testing"

	"gskew/internal/indexfn"
	"gskew/internal/rng"
	"gskew/internal/skewfn"
)

// trainUntil updates p with (addr, hist, taken) n times.
func train(p Predictor, addr, hist uint64, taken bool, n int) {
	for i := 0; i < n; i++ {
		p.Update(addr, hist, taken)
	}
}

func TestSingleLearnsDirection(t *testing.T) {
	for _, p := range []Predictor{
		MustSpec(Spec{Family: "gshare", N: 10, Hist: 8, Ctr: 2}),
		MustSpec(Spec{Family: "gselect", N: 10, Hist: 8, Ctr: 2}),
		MustSpec(Spec{Family: "bimodal", N: 10, Ctr: 2}),
	} {
		train(p, 0x400, 0xa5, false, 4)
		if p.Predict(0x400, 0xa5) {
			t.Errorf("%s did not learn not-taken", p.Name())
		}
		train(p, 0x400, 0xa5, true, 8)
		if !p.Predict(0x400, 0xa5) {
			t.Errorf("%s did not relearn taken", p.Name())
		}
	}
}

func TestSingleStorageBits(t *testing.T) {
	if got := MustSpec(Spec{Family: "gshare", N: 14, Hist: 12, Ctr: 2}).StorageBits(); got != 1<<14*2 {
		t.Errorf("16k gshare StorageBits = %d, want %d", got, 1<<15)
	}
	if got := MustSpec(Spec{Family: "bimodal", N: 10, Ctr: 1}).StorageBits(); got != 1024 {
		t.Errorf("1k bimodal 1-bit StorageBits = %d", got)
	}
}

func TestSingleReset(t *testing.T) {
	p := MustSpec(Spec{Family: "gshare", N: 8, Hist: 4, Ctr: 2})
	train(p, 0x10, 0x3, false, 4)
	p.Reset()
	if !p.Predict(0x10, 0x3) {
		t.Error("Reset did not restore weakly-taken default")
	}
}

func TestSingleString(t *testing.T) {
	if got := MustSpec(Spec{Family: "gshare", N: 14, Hist: 12, Ctr: 2}).(*Single).String(); got != "16k-gshare(h12,2bit)" {
		t.Errorf("String() = %q", got)
	}
	if got := MustSpec(Spec{Family: "bimodal", N: 9, Ctr: 2}).(*Single).String(); got != "512-bimodal(h0,2bit)" {
		t.Errorf("String() = %q", got)
	}
}

func TestSingleHistoryMattersForGShare(t *testing.T) {
	// gshare must separate the same address under different histories
	// (when they land on different entries); bimodal must not.
	gs := MustSpec(Spec{Family: "gshare", N: 10, Hist: 10, Ctr: 2})
	train(gs, 0x77, 0x000, true, 4)
	train(gs, 0x77, 0x3ff, false, 4)
	if !gs.Predict(0x77, 0x000) || gs.Predict(0x77, 0x3ff) {
		t.Error("gshare failed to separate substreams of one branch")
	}
	bm := MustSpec(Spec{Family: "bimodal", N: 10, Ctr: 2})
	train(bm, 0x77, 0x000, true, 4)
	if bm.Predict(0x77, 0x000) != bm.Predict(0x77, 0x3ff) {
		t.Error("bimodal should ignore history")
	}
}

func TestGSkewedConfigValidation(t *testing.T) {
	bad := []Config{
		{Banks: 2, BankBits: 10},                 // even
		{Banks: 1, BankBits: 10},                 // too few
		{Banks: 5, BankBits: 10, Enhanced: true}, // enhanced needs 3
		{Banks: 3, BankBits: 1},                  // width too small
		{Banks: 3, BankBits: 31},                 // width too large
		{Banks: 3, BankBits: 10, HistoryBits: 31},
	}
	for i, cfg := range bad {
		if _, err := NewGSkewed(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if _, err := NewGSkewed(Config{BankBits: 10}); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestGSkewedDefaults(t *testing.T) {
	g := MustGSkewed(Config{BankBits: 10, HistoryBits: 4})
	if g.Banks() != 3 {
		t.Errorf("default Banks = %d", g.Banks())
	}
	if g.BankEntries() != 1024 {
		t.Errorf("BankEntries = %d", g.BankEntries())
	}
	if g.StorageBits() != 3*1024*2 {
		t.Errorf("StorageBits = %d", g.StorageBits())
	}
	if g.Policy() != PartialUpdate {
		t.Errorf("default policy = %v", g.Policy())
	}
	if got := g.String(); got != "3x1k-gskewed(h4,2bit,partial)" {
		t.Errorf("String() = %q", got)
	}
}

func TestGSkewedLearns(t *testing.T) {
	for _, policy := range []UpdatePolicy{PartialUpdate, TotalUpdate} {
		g := MustGSkewed(Config{BankBits: 10, HistoryBits: 8, Policy: policy})
		train(g, 0x1234, 0x5a, false, 4)
		if g.Predict(0x1234, 0x5a) {
			t.Errorf("policy %v: did not learn not-taken", policy)
		}
		train(g, 0x1234, 0x5a, true, 8)
		if !g.Predict(0x1234, 0x5a) {
			t.Errorf("policy %v: did not relearn taken", policy)
		}
	}
}

func TestGSkewedIndicesMatchSkewFunctions(t *testing.T) {
	const n, k = 10, 6
	g := MustGSkewed(Config{BankBits: n, HistoryBits: k})
	s := skewfn.New(n)
	r := rng.NewXoshiro256(1)
	for i := 0; i < 1000; i++ {
		addr, hist := r.Uint64(), r.Uint64n(1<<k)
		v := indexfn.Vector(addr, hist, k)
		got := g.IndicesFor(addr, hist)
		want := []uint64{s.F0(v), s.F1(v), s.F2(v)}
		for b := range want {
			if got[b] != want[b] {
				t.Fatalf("bank %d index = %#x, want %#x", b, got[b], want[b])
			}
		}
	}
}

func TestEnhancedBank0IsAddressIndexed(t *testing.T) {
	const n, k = 10, 12
	g := MustGSkewed(Config{BankBits: n, HistoryBits: k, Enhanced: true})
	s := skewfn.New(n)
	r := rng.NewXoshiro256(2)
	for i := 0; i < 1000; i++ {
		addr, hist := r.Uint64(), r.Uint64n(1<<k)
		v := indexfn.Vector(addr, hist, k)
		got := g.IndicesFor(addr, hist)
		if got[0] != addr&(1<<n-1) {
			t.Fatalf("enhanced bank0 index = %#x, want addr mod 2^n = %#x", got[0], addr&(1<<n-1))
		}
		if got[1] != s.F1(v) || got[2] != s.F2(v) {
			t.Fatalf("enhanced banks 1/2 indices wrong")
		}
	}
	if g.Name() != "egskew" {
		t.Errorf("Name = %q", g.Name())
	}
}

// findBank0Collision searches for two addresses (zero history) that
// collide in bank 0 but in no other bank.
func findBank0Collision(t *testing.T, g *GSkewed) (v, w uint64) {
	t.Helper()
	r := rng.NewXoshiro256(3)
	for tries := 0; tries < 200000; tries++ {
		a, b := r.Uint64n(1<<20), r.Uint64n(1<<20)
		if a == b {
			continue
		}
		ia := g.IndicesFor(a, 0)
		ib := g.IndicesFor(b, 0)
		if ia[0] == ib[0] && ia[1] != ib[1] && ia[2] != ib[2] {
			return a, b
		}
	}
	t.Fatal("no bank-0-only collision found")
	return 0, 0
}

func TestPartialUpdatePreservesDissenter(t *testing.T) {
	// V and W collide in bank 0 only. Train W strongly not-taken, then
	// stream taken outcomes for V. The overall V prediction is correct
	// (banks 1,2 say taken), so under partial update the dissenting
	// bank 0 — which belongs to W's substream — must NOT be trained,
	// preserving W's counter. Under total update it is destroyed.
	partial := MustGSkewed(Config{BankBits: 8, HistoryBits: 0, Policy: PartialUpdate})
	v, w := findBank0Collision(t, partial)

	train(partial, w, 0, false, 4) // W strongly not-taken everywhere
	train(partial, v, 0, true, 8)  // V taken; banks 1,2 learn; bank 0 dissents
	if got := partial.BankValue(0, w, 0); got != 0 {
		t.Errorf("partial update trained the dissenting bank: value %d, want 0", got)
	}
	if !partial.Predict(v, 0) {
		t.Error("partial: V not predicted taken")
	}
	if partial.Predict(w, 0) {
		t.Error("partial: W prediction destroyed")
	}

	total := MustGSkewed(Config{BankBits: 8, HistoryBits: 0, Policy: TotalUpdate})
	train(total, w, 0, false, 4)
	train(total, v, 0, true, 8)
	if got := total.BankValue(0, w, 0); got != 3 {
		t.Errorf("total update should saturate shared bank-0 entry: value %d, want 3", got)
	}
}

func TestGSkewedMajorityRobustToSingleBankAlias(t *testing.T) {
	// Even with bank 0 fully aliased by W's opposite-direction stream,
	// V's majority vote must still be correct — the core mechanism of
	// the skewed predictor.
	g := MustGSkewed(Config{BankBits: 8, HistoryBits: 0, Policy: TotalUpdate})
	v, w := findBank0Collision(t, g)
	for i := 0; i < 50; i++ {
		g.Update(v, 0, true)
		g.Update(w, 0, false) // keeps thrashing shared bank-0 entry
	}
	if !g.Predict(v, 0) {
		t.Error("majority vote failed to rescue aliased reference V")
	}
	if g.Predict(w, 0) {
		t.Error("majority vote failed to rescue aliased reference W")
	}
}

func TestGSkewedFiveBanks(t *testing.T) {
	g := MustGSkewed(Config{Banks: 5, BankBits: 8, HistoryBits: 4})
	if g.Banks() != 5 {
		t.Fatalf("Banks = %d", g.Banks())
	}
	train(g, 0xbeef, 0x9, false, 4)
	if g.Predict(0xbeef, 0x9) {
		t.Error("5-bank gskewed did not learn")
	}
	idx := g.IndicesFor(0xbeef, 0x9)
	if len(idx) != 5 {
		t.Fatalf("IndicesFor returned %d indices", len(idx))
	}
}

func TestGSkewedReset(t *testing.T) {
	g := MustGSkewed(Config{BankBits: 8, HistoryBits: 4})
	train(g, 0x42, 0x3, false, 6)
	g.Reset()
	if !g.Predict(0x42, 0x3) {
		t.Error("Reset did not restore default prediction")
	}
}

func TestUpdatePolicyString(t *testing.T) {
	if PartialUpdate.String() != "partial" || TotalUpdate.String() != "total" {
		t.Error("UpdatePolicy.String misbehaves")
	}
	if UpdatePolicy(9).String() != "policy(9)" {
		t.Error("unknown policy String misbehaves")
	}
}

func TestUnaliasedSeparatesAllSubstreams(t *testing.T) {
	u := NewUnaliased(12, 2)
	// Distinct (addr, hist) pairs must never interfere.
	train(u, 1, 0x001, true, 4)
	train(u, 1, 0x002, false, 4)
	train(u, 2, 0x001, false, 4)
	if !u.Predict(1, 0x001) || u.Predict(1, 0x002) || u.Predict(2, 0x001) {
		t.Error("unaliased predictor mixed substreams")
	}
	if u.Substreams() != 3 {
		t.Errorf("Substreams = %d, want 3", u.Substreams())
	}
}

func TestUnaliasedSeen(t *testing.T) {
	u := NewUnaliased(4, 2)
	if u.Seen(9, 0x5) {
		t.Error("Seen before any update")
	}
	if !u.Predict(9, 0x5) {
		t.Error("unknown substream must fall back to taken")
	}
	u.Update(9, 0x5, false)
	if !u.Seen(9, 0x5) {
		t.Error("not Seen after update")
	}
	// First update starts from the weak state agreeing with the outcome.
	if u.Predict(9, 0x5) {
		t.Error("first not-taken outcome should yield a not-taken prediction")
	}
}

func TestUnaliasedHistoryMasking(t *testing.T) {
	// Histories identical in the low k bits are the same substream.
	u := NewUnaliased(4, 2)
	u.Update(5, 0xf3, true)
	if !u.Seen(5, 0x03) {
		t.Error("history not masked to k bits")
	}
	if u.Seen(5, 0x13&0xf|0x10) && u.Substreams() != 1 {
		t.Error("unexpected extra substream")
	}
}

func TestUnaliasedReset(t *testing.T) {
	u := NewUnaliased(4, 2)
	u.Update(1, 2, true)
	u.Reset()
	if u.Seen(1, 2) || u.Substreams() != 0 {
		t.Error("Reset incomplete")
	}
}

func TestUnaliasedBoundsAliasedPredictors(t *testing.T) {
	// On a biased random stream the infinite table must do at least as
	// well as a tiny gshare table (sanity for the whole hierarchy).
	r := rng.NewXoshiro256(8)
	u := NewUnaliased(4, 2)
	gs := MustSpec(Spec{Family: "gshare", N: 4, Hist: 4, Ctr: 2}) // tiny: heavy aliasing
	muU, muG := 0, 0
	const n = 30000
	for i := 0; i < n; i++ {
		addr := r.Uint64n(256)
		hist := r.Uint64n(16)
		taken := rng.Mix64(addr*977+hist)%10 < 7 // deterministic per-substream 70/30 split
		realTaken := r.Bool(0.9) == taken        // add noise
		if u.Seen(addr, hist) && u.Predict(addr, hist) != realTaken {
			muU++
		}
		if gs.Predict(addr, hist) != realTaken {
			muG++
		}
		u.Update(addr, hist, realTaken)
		gs.Update(addr, hist, realTaken)
	}
	if muU > muG {
		t.Errorf("unaliased (%d) mispredicted more than 16-entry gshare (%d)", muU, muG)
	}
}

func TestAssocLRUBasics(t *testing.T) {
	a := NewAssocLRU(2, 4, 2)
	if a.Entries() != 2 {
		t.Fatalf("Entries = %d", a.Entries())
	}
	if !a.Predict(1, 0) {
		t.Error("miss must predict taken (static fallback)")
	}
	train(a, 1, 0, false, 4)
	if a.Predict(1, 0) {
		t.Error("did not learn not-taken")
	}
	// Fill beyond capacity: (1,0) becomes LRU and is evicted.
	train(a, 2, 0, false, 1)
	train(a, 3, 0, false, 1)
	if a.Seen(1, 0) {
		t.Error("LRU entry not evicted")
	}
	if !a.Predict(1, 0) {
		t.Error("evicted entry must fall back to static taken")
	}
}

func TestAssocLRUCapacityVsUnaliased(t *testing.T) {
	// With capacity >= working set, AssocLRU behaves exactly like the
	// unaliased table (after first use) on any reference stream.
	a := NewAssocLRU(64, 6, 2)
	u := NewUnaliased(6, 2)
	r := rng.NewXoshiro256(5)
	for i := 0; i < 20000; i++ {
		addr := r.Uint64n(8)
		hist := r.Uint64n(8) // working set <= 64
		taken := r.Bool(0.7)
		if u.Seen(addr, hist) {
			if a.Predict(addr, hist) != u.Predict(addr, hist) {
				t.Fatalf("step %d: assoc-lru diverged from unaliased", i)
			}
		}
		a.Update(addr, hist, taken)
		u.Update(addr, hist, taken)
	}
}

func TestAssocLRUStorageAndString(t *testing.T) {
	a := NewAssocLRU(4096, 4, 2)
	if a.StorageBits() != 8192 {
		t.Errorf("StorageBits = %d", a.StorageBits())
	}
	if got := a.String(); got != "4k-assoc-lru(h4,2bit)" {
		t.Errorf("String() = %q", got)
	}
	if a.Name() != "assoc-lru" || a.HistoryBits() != 4 {
		t.Error("metadata wrong")
	}
}

func TestAssocLRUReset(t *testing.T) {
	a := NewAssocLRU(8, 4, 2)
	train(a, 1, 1, false, 4)
	a.Reset()
	if a.Seen(1, 1) || a.Predict(1, 1) != true {
		t.Error("Reset incomplete")
	}
}

func TestOneBitCounters(t *testing.T) {
	// All organisations must support 1-bit automata (Table 2 compares
	// 1-bit vs 2-bit).
	preds := []Predictor{
		MustSpec(Spec{Family: "gshare", N: 8, Hist: 4, Ctr: 1}),
		MustGSkewed(Config{BankBits: 8, HistoryBits: 4, CounterBits: 1}),
		NewUnaliased(4, 1),
		NewAssocLRU(64, 4, 1),
	}
	for _, p := range preds {
		p.Update(3, 1, false)
		if p.Predict(3, 1) {
			t.Errorf("%s: 1-bit automaton did not flip after one outcome", p.Name())
		}
		p.Update(3, 1, true)
		if !p.Predict(3, 1) {
			t.Errorf("%s: 1-bit automaton did not flip back", p.Name())
		}
	}
}

func BenchmarkGShare(b *testing.B) {
	p := MustSpec(Spec{Family: "gshare", N: 14, Hist: 12, Ctr: 2})
	r := rng.NewXoshiro256(1)
	addrs := make([]uint64, 1<<12)
	for i := range addrs {
		addrs[i] = r.Uint64n(1 << 20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&(1<<12-1)]
		h := uint64(i)
		taken := p.Predict(a, h)
		p.Update(a, h, taken)
	}
}

func BenchmarkGSkewed3(b *testing.B) {
	p := MustGSkewed(Config{BankBits: 12, HistoryBits: 12})
	r := rng.NewXoshiro256(1)
	addrs := make([]uint64, 1<<12)
	for i := range addrs {
		addrs[i] = r.Uint64n(1 << 20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&(1<<12-1)]
		h := uint64(i)
		taken := p.Predict(a, h)
		p.Update(a, h, taken)
	}
}

func BenchmarkEnhancedGSkewed(b *testing.B) {
	p := MustGSkewed(Config{BankBits: 12, HistoryBits: 12, Enhanced: true})
	r := rng.NewXoshiro256(1)
	addrs := make([]uint64, 1<<12)
	for i := range addrs {
		addrs[i] = r.Uint64n(1 << 20)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i&(1<<12-1)]
		h := uint64(i)
		taken := p.Predict(a, h)
		p.Update(a, h, taken)
	}
}
