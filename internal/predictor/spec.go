package predictor

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"

	"gskew/internal/counter"
	"gskew/internal/indexfn"
)

// Spec is the unified construction surface for every predictor family
// in the repository. It replaced (and has since retired) the
// historical mix of positional constructors with one config struct,
// one factory (Spec.New) and one canonical, round-trippable string
// form (ParseSpec / Spec.String), e.g.
//
//	gshare:n=14,k=12,ctr=2
//	gskewed:n=12,k=8,banks=3,ctr=2,policy=partial
//	2bcgskew:n=12,ks=7,k=14
//
// Only the fields a family uses are consulted (the rest are ignored,
// like unset Config fields); zero values take family defaults, which
// Normalize makes explicit. Every constructed predictor reports its
// own normalized Spec via the Speccer interface, which is also how
// internal/kernel recognizes compilable organisations.
//
// Composite predictors (Hybrid) are built from their components and
// have no Spec grammar.
type Spec struct {
	// Family is the organisation name: bimodal, gshare, gselect,
	// gskewed, egskew, 2bcgskew, agree, bimode, pas, skewed-pas,
	// unaliased, assoc-lru, tage or perceptron.
	Family string
	// N is the table (or per-bank) index width: 2^N entries. Key "n".
	N uint
	// Hist is the global-history length k (the long history for
	// 2bcgskew). Key "k".
	Hist uint
	// HistShort is 2bcgskew's short history length (G0/META). Key "ks".
	HistShort uint
	// Banks is the gskewed bank count (odd, >= 3; default 3). Key
	// "banks".
	Banks int
	// Ctr is the saturating-counter width (default 2). Key "ctr".
	Ctr uint
	// Policy selects partial or total update for the skewed families.
	// Key "policy" (values "partial", "total").
	Policy UpdatePolicy
	// SharedHyst selects gskewed's shared-hysteresis encoding: one
	// hysteresis bit per 2^SharedHyst entries (0 = private counters).
	// Key "shh".
	SharedHyst uint
	// Bias is the agree predictor's bias-table index width. Key "bias".
	Bias uint
	// Choice is the bi-mode choice-table index width. Key "choice".
	Choice uint
	// BHT is the per-address history-table index width of the pas
	// families. Key "bht".
	BHT uint
	// Local is the per-address (local) history length of the pas
	// families. Key "local".
	Local uint
	// Entries is the assoc-lru capacity (need not be a power of two).
	// Key "entries".
	Entries int
	// Tables is the tagged-component count (tage) or weight-table
	// count (perceptron). Key "tables".
	Tables int
	// Tag is the tage partial-tag width. Key "tag".
	Tag uint
	// HistMin is tage's shortest geometric history length L_1 (lengths
	// double per component up to Hist). Key "kmin".
	HistMin uint
	// Theta is the perceptron training threshold; 0 selects the
	// conventional default floor(1.93*k + 14). Key "theta".
	Theta int
}

// Speccer is implemented by every predictor that can report its own
// construction Spec. internal/kernel dispatches on the reported
// family when deciding whether an organisation compiles to a kernel.
type Speccer interface {
	Spec() Spec
}

// Families lists every family the Spec grammar accepts, in
// documentation order.
func Families() []string {
	return []string{
		"bimodal", "gshare", "gselect", "gskewed", "egskew", "2bcgskew",
		"agree", "bimode", "pas", "skewed-pas", "unaliased", "assoc-lru",
		"tage", "perceptron",
	}
}

// Normalize returns the spec with family defaults made explicit
// (counter width 2, three banks, zeroed irrelevant fields), the form
// Spec.String renders and constructed predictors report. Unknown
// families normalize to themselves.
func (s Spec) Normalize() Spec {
	t := s
	if t.Ctr == 0 {
		t.Ctr = 2
	}
	switch t.Family {
	case "bimodal":
		t = Spec{Family: t.Family, N: t.N, Ctr: t.Ctr}
	case "gshare", "gselect":
		t = Spec{Family: t.Family, N: t.N, Hist: t.Hist, Ctr: t.Ctr}
	case "gskewed":
		if t.Banks == 0 {
			t.Banks = 3
		}
		if t.SharedHyst > 0 {
			t.Ctr = 2 // the encoding decomposes the 2-bit automaton
		}
		t = Spec{Family: t.Family, N: t.N, Hist: t.Hist, Banks: t.Banks,
			Ctr: t.Ctr, Policy: t.Policy, SharedHyst: t.SharedHyst}
	case "egskew":
		if t.SharedHyst > 0 {
			t.Ctr = 2
		}
		t = Spec{Family: t.Family, N: t.N, Hist: t.Hist, Banks: 3,
			Ctr: t.Ctr, Policy: t.Policy, SharedHyst: t.SharedHyst}
	case "2bcgskew":
		t = Spec{Family: t.Family, N: t.N, Hist: t.Hist, HistShort: t.HistShort, Ctr: 2}
	case "agree":
		t = Spec{Family: t.Family, N: t.N, Hist: t.Hist, Bias: t.Bias, Ctr: t.Ctr}
	case "bimode":
		t = Spec{Family: t.Family, N: t.N, Hist: t.Hist, Choice: t.Choice, Ctr: t.Ctr}
	case "pas":
		t = Spec{Family: t.Family, N: t.N, BHT: t.BHT, Local: t.Local, Ctr: t.Ctr}
	case "skewed-pas":
		t = Spec{Family: t.Family, N: t.N, BHT: t.BHT, Local: t.Local,
			Ctr: t.Ctr, Policy: t.Policy}
	case "unaliased":
		t = Spec{Family: t.Family, Hist: t.Hist, Ctr: t.Ctr}
	case "assoc-lru":
		t = Spec{Family: t.Family, Entries: t.Entries, Hist: t.Hist, Ctr: t.Ctr}
	case "tage":
		// The tagged components default to 3-bit counters (the TAGE
		// papers' width), not the global 2-bit default.
		if s.Ctr == 0 {
			t.Ctr = 3
		}
		if t.Tables == 0 {
			t.Tables = 4
		}
		if t.Tag == 0 {
			t.Tag = 8
		}
		if t.HistMin == 0 {
			t.HistMin = 4
		}
		t = Spec{Family: t.Family, N: t.N, Hist: t.Hist, HistMin: t.HistMin,
			Tables: t.Tables, Tag: t.Tag, Ctr: t.Ctr}
	case "perceptron":
		// Ctr is the signed weight width; 8 bits is the conventional
		// perceptron default.
		if s.Ctr == 0 {
			t.Ctr = 8
		}
		if t.Tables == 0 {
			t.Tables = 8
		}
		if t.Theta == 0 {
			t.Theta = int(193*s.Hist+1400) / 100
		}
		t = Spec{Family: t.Family, N: t.N, Hist: t.Hist,
			Tables: t.Tables, Theta: t.Theta, Ctr: t.Ctr}
	}
	return t
}

// New builds the predictor the spec describes. Invalid configurations
// return an error (never panic), making the string form safe for
// untrusted command lines.
func (s Spec) New() (Predictor, error) {
	t := s.Normalize()
	if t.Ctr < 1 || t.Ctr > 8 {
		return nil, fmt.Errorf("predictor: counter width %d out of range [1,8]", t.Ctr)
	}
	switch t.Family {
	case "bimodal", "gshare", "gselect":
		if t.N < 1 || t.N > 30 {
			return nil, fmt.Errorf("predictor: index width %d out of range [1,30]", t.N)
		}
		if t.Hist > 30 {
			return nil, fmt.Errorf("predictor: history length %d out of range [0,30]", t.Hist)
		}
		var fn indexfn.Func
		switch t.Family {
		case "bimodal":
			fn = indexfn.NewBimodal(t.N)
		case "gshare":
			fn = indexfn.NewGShare(t.N, t.Hist)
		default:
			fn = indexfn.NewGSelect(t.N, t.Hist)
		}
		return NewSingle(fn, t.Ctr), nil
	case "gskewed", "egskew":
		return NewGSkewed(Config{
			Banks: t.Banks, BankBits: t.N, HistoryBits: t.Hist,
			CounterBits: t.Ctr, Policy: t.Policy,
			Enhanced: t.Family == "egskew", SharedHysteresis: t.SharedHyst,
		})
	case "2bcgskew":
		return newTwoBcGSkew(t.N, t.HistShort, t.Hist)
	case "agree", "bimode":
		if t.N < 1 || t.N > 30 {
			return nil, fmt.Errorf("predictor: index width %d out of range [1,30]", t.N)
		}
		if t.Hist > 30 {
			return nil, fmt.Errorf("predictor: history length %d out of range [0,30]", t.Hist)
		}
		if t.Family == "agree" {
			return newAgree(t.N, t.Hist, t.Bias, t.Ctr)
		}
		return newBiMode(t.N, t.Hist, t.Choice, t.Ctr)
	case "pas", "skewed-pas":
		if t.BHT < 1 || t.BHT > 26 {
			return nil, fmt.Errorf("predictor: BHT index width %d out of range [1,26]", t.BHT)
		}
		if t.Local > 30 {
			return nil, fmt.Errorf("predictor: local history length %d out of range [0,30]", t.Local)
		}
		if t.Family == "pas" {
			return newPAs(t.BHT, t.Local, t.N, t.Ctr)
		}
		return newSkewedPAs(t.BHT, t.Local, t.N, t.Ctr, t.Policy)
	case "unaliased":
		if t.Hist > 30 {
			return nil, fmt.Errorf("predictor: history length %d out of range [0,30]", t.Hist)
		}
		return NewUnaliased(t.Hist, t.Ctr), nil
	case "assoc-lru":
		if t.Entries < 1 {
			return nil, fmt.Errorf("predictor: assoc-lru needs entries >= 1, got %d", t.Entries)
		}
		if t.Hist > 30 {
			return nil, fmt.Errorf("predictor: history length %d out of range [0,30]", t.Hist)
		}
		return NewAssocLRU(t.Entries, t.Hist, t.Ctr), nil
	case "tage":
		return newTAGE(t.N, t.Hist, t.HistMin, t.Tables, t.Tag, t.Ctr)
	case "perceptron":
		return newPerceptron(t.N, t.Hist, t.Tables, t.Theta, t.Ctr)
	case "":
		return nil, fmt.Errorf("predictor: empty spec family")
	default:
		return nil, fmt.Errorf("predictor: unknown family %q (have %s)",
			t.Family, strings.Join(Families(), ", "))
	}
}

// MustSpec is Spec.New, panicking on configuration errors. Intended
// for experiment tables whose configurations are static.
func MustSpec(s Spec) Predictor {
	p, err := s.New()
	if err != nil {
		panic(err)
	}
	return p
}

// String renders the canonical form, `family:key=val,...`, with the
// family's keys in a fixed order and defaults explicit, so that
// ParseSpec(s.String()) reproduces s.Normalize() exactly.
func (s Spec) String() string {
	t := s.Normalize()
	var kv []string
	add := func(k string, v any) { kv = append(kv, fmt.Sprintf("%s=%v", k, v)) }
	switch t.Family {
	case "bimodal":
		add("n", t.N)
	case "gshare", "gselect":
		add("n", t.N)
		add("k", t.Hist)
	case "gskewed":
		add("n", t.N)
		add("k", t.Hist)
		add("banks", t.Banks)
	case "egskew":
		add("n", t.N)
		add("k", t.Hist)
	case "2bcgskew":
		return fmt.Sprintf("2bcgskew:n=%d,ks=%d,k=%d", t.N, t.HistShort, t.Hist)
	case "agree":
		add("n", t.N)
		add("k", t.Hist)
		add("bias", t.Bias)
	case "bimode":
		add("n", t.N)
		add("k", t.Hist)
		add("choice", t.Choice)
	case "pas", "skewed-pas":
		add("bht", t.BHT)
		add("local", t.Local)
		add("n", t.N)
	case "unaliased":
		add("k", t.Hist)
	case "assoc-lru":
		add("entries", t.Entries)
		add("k", t.Hist)
	case "tage":
		add("n", t.N)
		add("k", t.Hist)
		add("kmin", t.HistMin)
		add("tables", t.Tables)
		add("tag", t.Tag)
	case "perceptron":
		add("n", t.N)
		add("k", t.Hist)
		add("tables", t.Tables)
		add("theta", t.Theta)
	default:
		return t.Family
	}
	add("ctr", t.Ctr)
	switch t.Family {
	case "gskewed", "egskew":
		add("policy", t.Policy)
		if t.SharedHyst > 0 {
			add("shh", t.SharedHyst)
		}
	case "skewed-pas":
		add("policy", t.Policy)
	}
	return t.Family + ":" + strings.Join(kv, ",")
}

// ParseSpec parses the canonical string form back into a Spec. It
// accepts any known family followed by comma-separated key=value
// pairs; keys irrelevant to the family are rejected. The result is
// normalized (family defaults explicit), so ParseSpec is the exact
// inverse of Spec.String: ParseSpec(s.String()) == s.Normalize().
func ParseSpec(text string) (Spec, error) {
	fam, rest, hasParams := strings.Cut(strings.TrimSpace(text), ":")
	fam = strings.TrimSpace(fam)
	known := false
	for _, f := range Families() {
		if fam == f {
			known = true
			break
		}
	}
	if !known {
		return Spec{}, fmt.Errorf("predictor: unknown family %q in spec %q (have %s)",
			fam, text, strings.Join(Families(), ", "))
	}
	s := Spec{Family: fam}
	if !hasParams || strings.TrimSpace(rest) == "" {
		return s.Normalize(), nil
	}
	seen := make(map[string]bool)
	for _, pair := range strings.Split(rest, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(pair), "=")
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		if !ok || key == "" || val == "" {
			return Spec{}, fmt.Errorf("predictor: malformed parameter %q in spec %q (want key=value)", pair, text)
		}
		if seen[key] {
			return Spec{}, fmt.Errorf("predictor: duplicate parameter %q in spec %q", key, text)
		}
		seen[key] = true
		if !keyAllowed(fam, key) {
			return Spec{}, fmt.Errorf("predictor: parameter %q does not apply to family %q (allowed: %s)",
				key, fam, strings.Join(allowedKeys(fam), ", "))
		}
		if key == "policy" {
			switch val {
			case "partial":
				s.Policy = PartialUpdate
			case "total":
				s.Policy = TotalUpdate
			default:
				return Spec{}, fmt.Errorf("predictor: unknown policy %q in spec %q (want partial or total)", val, text)
			}
			continue
		}
		u, err := strconv.ParseUint(val, 10, 32)
		if err != nil {
			return Spec{}, fmt.Errorf("predictor: parameter %s=%q in spec %q is not a number", key, val, text)
		}
		switch key {
		case "n":
			s.N = uint(u)
		case "k":
			s.Hist = uint(u)
		case "ks":
			s.HistShort = uint(u)
		case "banks":
			s.Banks = int(u)
		case "ctr":
			s.Ctr = uint(u)
		case "shh":
			s.SharedHyst = uint(u)
		case "bias":
			s.Bias = uint(u)
		case "choice":
			s.Choice = uint(u)
		case "bht":
			s.BHT = uint(u)
		case "local":
			s.Local = uint(u)
		case "entries":
			s.Entries = int(u)
		case "tables":
			s.Tables = int(u)
		case "tag":
			s.Tag = uint(u)
		case "kmin":
			s.HistMin = uint(u)
		case "theta":
			s.Theta = int(u)
		}
	}
	return s.Normalize(), nil
}

// MustParseSpec builds the predictor a canonical spec string
// describes, panicking on errors. Intended for static tables.
func MustParseSpec(text string) Predictor {
	s, err := ParseSpec(text)
	if err != nil {
		panic(err)
	}
	return MustSpec(s)
}

// specKeys maps each family to the parameter keys its grammar accepts.
var specKeys = map[string][]string{
	"bimodal":    {"n", "ctr"},
	"gshare":     {"n", "k", "ctr"},
	"gselect":    {"n", "k", "ctr"},
	"gskewed":    {"n", "k", "banks", "ctr", "policy", "shh"},
	"egskew":     {"n", "k", "ctr", "policy", "shh"},
	"2bcgskew":   {"n", "ks", "k"},
	"agree":      {"n", "k", "bias", "ctr"},
	"bimode":     {"n", "k", "choice", "ctr"},
	"pas":        {"bht", "local", "n", "ctr"},
	"skewed-pas": {"bht", "local", "n", "ctr", "policy"},
	"unaliased":  {"k", "ctr"},
	"assoc-lru":  {"entries", "k", "ctr"},
	"tage":       {"n", "k", "kmin", "tables", "tag", "ctr"},
	"perceptron": {"n", "k", "tables", "theta", "ctr"},
}

func keyAllowed(fam, key string) bool {
	for _, k := range specKeys[fam] {
		if k == key {
			return true
		}
	}
	return false
}

func allowedKeys(fam string) []string {
	keys := append([]string(nil), specKeys[fam]...)
	sort.Strings(keys)
	return keys
}

// AllowedKeys returns the parameter keys family's grammar accepts, in
// sorted order (empty for unknown families). It backs grammar
// discovery surfaces such as the simulation server's /v1/specs.
func AllowedKeys(family string) []string { return allowedKeys(family) }

// Spec methods on the concrete predictors: each reports the normalized
// spec that reconstructs it.

// Spec implements Speccer. Singles hosting a custom index function
// (outside bimodal/gshare/gselect) report the function's name as the
// family; such specs do not reconstruct.
func (s *Single) Spec() Spec {
	sp := Spec{N: s.fn.Bits(), Hist: s.fn.HistoryBits(), Ctr: s.table.Bits()}
	switch s.fn.(type) {
	case *indexfn.Bimodal:
		sp.Family = "bimodal"
	case *indexfn.GShare:
		sp.Family = "gshare"
	case *indexfn.GSelect:
		sp.Family = "gselect"
	default:
		sp.Family = s.fn.Name()
	}
	return sp.Normalize()
}

// Spec implements Speccer.
func (g *GSkewed) Spec() Spec {
	sp := Spec{
		N: g.BankBits(), Hist: g.histBits, Banks: len(g.banks),
		Policy: g.policy,
	}
	if g.enhanced {
		sp.Family = "egskew"
	} else {
		sp.Family = "gskewed"
	}
	switch b := g.banks[0].(type) {
	case *counter.Table:
		sp.Ctr = b.Bits()
	case *counter.SplitTable:
		sp.Ctr = 2
		sp.SharedHyst = uint(bits.TrailingZeros(uint(b.GroupSize())))
	}
	return sp.Normalize()
}

// Spec implements Speccer.
func (t *TwoBcGSkew) Spec() Spec {
	return Spec{Family: "2bcgskew", N: t.IndexBits(),
		HistShort: t.histG0, Hist: t.histG1}.Normalize()
}

// Spec implements Speccer.
func (a *Agree) Spec() Spec {
	return Spec{Family: "agree", N: a.fn.Bits(), Hist: a.fn.HistoryBits(),
		Bias: uint(bits.TrailingZeros(uint(len(a.biasBit)))), Ctr: a.agree.Bits()}.Normalize()
}

// Spec implements Speccer.
func (b *BiMode) Spec() Spec {
	return Spec{Family: "bimode", N: b.fn.Bits(), Hist: b.fn.HistoryBits(),
		Choice: uint(bits.TrailingZeros(uint(b.choice.Len()))), Ctr: b.taken.Bits()}.Normalize()
}

// Spec implements Speccer.
func (p *PAs) Spec() Spec {
	return Spec{Family: "pas", N: p.phtBits, BHT: uint(bits.TrailingZeros(uint(p.bht.Tables()))),
		Local: p.localK, Ctr: p.pht.Bits()}.Normalize()
}

// Spec implements Speccer.
func (s *SkewedPAs) Spec() Spec {
	return Spec{Family: "skewed-pas", N: s.skew.Bits(),
		BHT: uint(bits.TrailingZeros(uint(s.bht.Tables()))), Local: s.localK,
		Ctr: s.banks[0].Bits(), Policy: s.policy}.Normalize()
}

// Spec implements Speccer.
func (u *Unaliased) Spec() Spec {
	return Spec{Family: "unaliased", Hist: u.histBits, Ctr: u.ctrBits}.Normalize()
}

// Spec implements Speccer.
func (a *AssocLRU) Spec() Spec {
	return Spec{Family: "assoc-lru", Entries: a.lru.Capacity(),
		Hist: a.histBits, Ctr: a.ctrBits}.Normalize()
}
