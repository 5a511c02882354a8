package algotrace

import (
	"testing"

	"gskew/internal/trace"
)

// algoSpecSeeds is FuzzAlgoSpec's seed corpus: a canonical spec per
// family plus spellings the grammar must reject or normalise.
var algoSpecSeeds = []string{
	"algo:mp",
	"algo:kmp,n=2000,m=4,sigma=2,dist=uniform,pat=rand,seed=7",
	"algo:mp,n=300000,m=6,dist=bern,p=0.7,pat=alt,seed=7",
	"algo:binsearch,n=256,q=500,seed=7",
	"algo:insertion,n=128,runs=2,sorted=0.5,seed=7",
	"algo:quick,n=256,runs=2,sorted=0,seed=7",
	"algo:heap,n=256,runs=2,sorted=1,seed=7",
	"algo:scanmax,n=1024,runs=2,seed=7",
	"algo: kmp , n = 10 ",
	"algo:kmp,n=10,n=11",
	"algo:mp,q=5",
	"algo:bogosort",
	"algo:mp,dist=zipf",
	"algo:mp,p=1.5",
	"algo:",
	"",
}

// FuzzAlgoSpec checks the algo: grammar's core contract on arbitrary
// input: ParseSpec never panics, and anything it accepts canonicalises
// to a fixed point — ParseSpec(s.String()) == s == s.Normalize(). The
// experiments layer, the trace pool, and the server all key caches on
// canonical spec strings, so a spelling that parsed but drifted under
// re-canonicalisation would silently split or corrupt cache cells.
func FuzzAlgoSpec(f *testing.F) {
	for _, seed := range algoSpecSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		s, err := ParseSpec(text)
		if err != nil {
			return // rejected input only has to not panic
		}
		if norm := s.Normalize(); s != norm {
			t.Fatalf("ParseSpec(%q) = %+v is not normalized (want %+v)", text, s, norm)
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
		// Parsing is syntactic; range errors are legal and surface at
		// Validate/Record (like predictor.Spec geometry errors at New).
		if err := s.Validate(); err != nil {
			return
		}
		// Anything parseable AND valid must actually record — cap the
		// problem size first so the fuzzer doesn't explore
		// quadratic-sort or megabyte-text instances.
		capped := s
		if capped.N > 512 {
			capped.N = 512
		}
		if capped.M > capped.N {
			capped.M = capped.N
		}
		if capped.Queries > 256 {
			capped.Queries = 256
		}
		if capped.Runs > 2 {
			capped.Runs = 2
		}
		branches, err := Record(capped)
		if err != nil {
			t.Fatalf("accepted spec %q (capped %+v) failed to record: %v", canon, capped, err)
		}
		if len(branches) == 0 {
			t.Fatalf("accepted spec %q recorded an empty stream", canon)
		}
	})
}

// FuzzRecorder feeds arbitrary (site, taken) event sequences through a
// Recorder and requires the recorded stream to (a) reproduce the
// events exactly, with stable distinct PCs per site, and (b) survive
// the block-columnar codec byte-for-byte under the canonical content
// hash. This is the contract the whole workload subsystem leans on:
// recorded streams are ordinary trace.Branch data.
func FuzzRecorder(f *testing.F) {
	f.Add([]byte{}, uint8(4))
	f.Add([]byte{0x00, 0x81, 0x02, 0xff}, uint8(7))
	f.Add([]byte{0x10, 0x90, 0x10, 0x90, 0x10}, uint8(1))
	f.Fuzz(func(t *testing.T, events []byte, nsites uint8) {
		n := int(nsites)%16 + 1
		p := NewProgram("fuzz")
		sites := make([]SiteID, n)
		for i := range sites {
			sites[i] = p.Site(string(rune('a' + i)))
		}
		rec := NewRecorder()
		// Each event byte picks a site (low bits) and a direction (top
		// bit); replay the same sequence twice through two recorders.
		rec2 := NewRecorder()
		for _, e := range events {
			s := sites[int(e&0x7f)%n]
			taken := e&0x80 != 0
			if got := rec.Branch(s, taken); got != taken {
				t.Fatalf("Branch returned %v for taken=%v", got, taken)
			}
			rec2.Branch(s, taken)
		}
		branches := rec.Branches()
		if len(branches) != len(events) {
			t.Fatalf("recorded %d branches for %d events", len(branches), len(events))
		}
		for i, e := range events {
			b := branches[i]
			if b.Kind != trace.Conditional {
				t.Fatalf("event %d recorded as %v, want Conditional", i, b.Kind)
			}
			if b.Taken != (e&0x80 != 0) {
				t.Fatalf("event %d direction flipped", i)
			}
			want := sites[int(e&0x7f)%n]
			if b.PC != want.PC() {
				t.Fatalf("event %d PC %#x does not match site %#x", i, b.PC, uint64(want))
			}
		}
		// Same events, same program → byte-identical stream and hash.
		h := trace.HashBranches(branches)
		if h2 := trace.HashBranches(rec2.Branches()); h2 != h {
			t.Fatalf("replay hash diverged: %s vs %s", h, h2)
		}
		// Codec round trip preserves records and content hash.
		enc, err := trace.EncodeColumnar(branches)
		if err != nil {
			t.Fatal(err)
		}
		dec, err := trace.DecodeBytes(enc)
		if err != nil {
			t.Fatal(err)
		}
		if len(dec) != len(branches) {
			t.Fatalf("codec changed record count: %d vs %d", len(dec), len(branches))
		}
		for i := range branches {
			if dec[i] != branches[i] {
				t.Fatalf("codec changed record %d: %+v vs %+v", i, dec[i], branches[i])
			}
		}
		if hd := trace.HashBranches(dec); hd != h {
			t.Fatalf("codec changed content hash: %s vs %s", hd, h)
		}
	})
}
