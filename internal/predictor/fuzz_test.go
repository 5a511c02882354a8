package predictor

import (
	"strings"
	"testing"
)

// FuzzParseSpec checks the spec grammar's core contract on arbitrary
// input: ParseSpec never panics, and anything it accepts canonicalises
// to a fixed point — ParseSpec(s.String()) == s == s.Normalize(). The
// server keys its content-addressed result store on canonical spec
// strings (internal/store), so a spelling that parsed but failed to
// re-parse, or drifted under re-canonicalisation, would silently split
// or corrupt cache cells.
func FuzzParseSpec(f *testing.F) {
	// One canonical example per family, plus default-elided spellings
	// and representative malformed inputs.
	for _, seed := range []string{
		"bimodal:n=14,ctr=2",
		"gshare:n=14,k=12,ctr=2",
		"gselect:n=14,k=6,ctr=2",
		"gskewed:n=12,k=8,banks=3,ctr=2,policy=partial",
		"egskew:n=12,k=12,ctr=2,policy=total,shh=10",
		"2bcgskew:n=12,ks=7,k=14",
		"agree:n=12,k=10,bias=12,ctr=2",
		"bimode:n=12,k=10,choice=12,ctr=2",
		"pas:bht=10,local=8,n=12,ctr=2",
		"skewed-pas:bht=10,local=8,n=12,ctr=2,policy=partial",
		"unaliased:k=12,ctr=2",
		"assoc-lru:entries=1024,k=4,ctr=2",
		"gshare",
		"gshare: n = 8 , k = 6 ",
		"gshare:n=8,k=6,k=7",
		"bimodal:k=4",
		"gskewed:policy=sideways",
		"oracle:n=8",
		":n=8",
		"gshare:n=",
		"gshare:n=99999999999999999999",
		"",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(text)
		if err != nil {
			return // rejected input only has to not panic
		}
		if s != s.Normalize() {
			t.Fatalf("ParseSpec(%q) = %+v is not normalized (want %+v)", text, s, s.Normalize())
		}
		canon := s.String()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("canonical form %q of accepted spec %q does not re-parse: %v", canon, text, err)
		}
		if again != s {
			t.Fatalf("canonical round trip drifted: %q parsed as %+v, its String %q re-parsed as %+v",
				text, s, canon, again)
		}
		if again.String() != canon {
			t.Fatalf("String not a fixed point: %q then %q", canon, again.String())
		}
		// Anything buildable must stay buildable (and agree on family)
		// after the round trip. Cap the geometry first: ParseSpec
		// accepts any uint32 for n/entries, and New allocates 2^n — the
		// fuzzer would otherwise explore multi-gigabyte predictors.
		if s.N > 16 || s.Entries > 1<<16 || s.BHT > 16 || s.Local > 16 || s.Choice > 16 || s.Bias > 16 {
			return
		}
		p, err := s.New()
		if err != nil {
			return // geometry errors are legal; they just must not panic
		}
		if !strings.HasPrefix(canon, s.Family+":") && canon != s.Family {
			t.Fatalf("canonical form %q does not carry family %q", canon, s.Family)
		}
		// Unaliased reports the storage of the substreams seen so far,
		// which is legitimately zero on a fresh instance; everything
		// else must report a positive fixed budget.
		if p.StorageBits() < 0 || (p.StorageBits() == 0 && s.Family != "unaliased") {
			t.Fatalf("spec %q built a predictor with %d storage bits", canon, p.StorageBits())
		}
	})
}

// FuzzAssocLRUDense diffs AssocLRU, on its interned IDs and lru.IDSet,
// against the vector-keyed table on lru.Cache it replaced
// (reference_test.go). Every two input bytes make one call: the first
// picks the call (Step, Predict, Update, Seen or, rarely, Reset) and
// the outcome, the second the address and history, drawn from a small
// alphabet so pairs repeat and tables of 1-9 entries overflow. Every
// call's result must agree, and so must the configuration accessors.
func FuzzAssocLRUDense(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(2), []byte{0, 1, 0, 2, 0x80, 3, 0, 1, 2, 2, 3, 3, 1, 1})
	f.Add(uint8(0), uint8(0), uint8(1), []byte{0, 5, 0, 6, 0, 5, 0x81, 5, 0x0f, 0, 0, 5})
	f.Add(uint8(8), uint8(3), uint8(2), []byte{0x80, 0x11, 0x80, 0x22, 0, 0x33, 0x80, 0x11, 4, 0x22, 0x83, 0x44})
	f.Fuzz(func(t *testing.T, cap8, hist8, ctr8 uint8, ops []byte) {
		entries := int(cap8%9) + 1
		k := uint(hist8 % 4)
		ctr := uint(ctr8%3) + 1
		got, want := NewAssocLRU(entries, k, ctr), newCacheAssocLRU(entries, k, ctr)
		if got.String() != want.String() || got.Entries() != want.Entries() ||
			got.StorageBits() != want.StorageBits() || got.HistoryBits() != want.HistoryBits() {
			t.Fatalf("configuration %s/%d/%d, reference %s/%d/%d",
				got, got.Entries(), got.StorageBits(), want, want.Entries(), want.StorageBits())
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, key := ops[i], ops[i+1]
			addr, hist := uint64(key&0x0f), uint64(key>>4)
			taken := op&0x80 != 0
			switch op & 0x0f {
			case 0, 5, 10:
				if g, w := got.Step(addr, hist, taken), want.Step(addr, hist, taken); g != w {
					t.Fatalf("call %d: Step(%d,%d,%v) = %v, reference %v", i/2, addr, hist, taken, g, w)
				}
			case 1, 6, 11:
				if g, w := got.Predict(addr, hist), want.Predict(addr, hist); g != w {
					t.Fatalf("call %d: Predict(%d,%d) = %v, reference %v", i/2, addr, hist, g, w)
				}
			case 2, 7, 12:
				got.Update(addr, hist, taken)
				want.Update(addr, hist, taken)
			case 3, 8, 13:
				if g, w := got.Seen(addr, hist), want.Seen(addr, hist); g != w {
					t.Fatalf("call %d: Seen(%d,%d) = %v, reference %v", i/2, addr, hist, g, w)
				}
			case 4, 9, 14:
				// Predict and Seen of every pair: residency and every
				// resident counter agree, and neither touches recency.
				for a := uint64(0); a < 16; a++ {
					for h := uint64(0); h < 16; h++ {
						if got.Seen(a, h) != want.Seen(a, h) || got.Predict(a, h) != want.Predict(a, h) {
							t.Fatalf("call %d: pair (%d,%d) seen %v/%v, reference %v/%v", i/2, a, h,
								got.Seen(a, h), got.Predict(a, h), want.Seen(a, h), want.Predict(a, h))
						}
					}
				}
			case 15:
				got.Reset()
				want.Reset()
			}
		}
	})
}
