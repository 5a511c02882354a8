package algotrace

import (
	"fmt"
	"math"

	"gskew/internal/rng"
)

// Analytic side model for the MP/KMP workloads, after the
// branch-prediction analysis of Morris-Pratt and Knuth-Morris-Pratt by
// Nicaud, Pivoteau and Vialette (arXiv 2503.13694). Their central
// construction: when the text is drawn iid, the matcher's automaton
// state j together with the per-site predictor states forms a finite
// Markov chain, so the expected steady-state misprediction rate of a
// first-order (per-site saturating counter) predictor has a closed
// form — the stationary expectation of misses per character over the
// product chain. This file re-derives that construction independently:
// it shares no code with the instrumented matcher (failure tables are
// recomputed by brute force) or with internal/predictor (the counter
// automaton is re-transcribed from its definition). Simulating a
// recorded stream under private per-site counters must land on the
// rate computed here — an external oracle for the whole
// record→encode→decode→simulate pipeline.
//
// The chain. At the top of the matcher's outer loop the automaton
// state is j in [0, m-1]. Consuming one text character c executes a
// deterministic word of branch events at the guard/cmp/match sites
// (the outer site fires exactly once per character and is always
// taken in steady state, so it adds one branch and no misses). The
// composite chain state is (j, guard counter, cmp counter, match
// counter); each character moves the chain one step and yields a
// known number of conditional branches and — given the counter states
// — mispredictions. The stationary distribution is computed by power
// iteration on the lazy chain P' = (I+P)/2, which preserves the
// stationary distribution while guaranteeing aperiodicity; iteration
// starts from the matcher's true initial state (j=0, counters weakly
// taken), so reducible corner cases converge to the behaviour a real
// run exhibits. By renewal-reward, the expected miss rate per
// conditional branch is E[misses per char] / E[branches per char].

// Analytic is the side model's output for one MP/KMP spec.
type Analytic struct {
	// MissRate is the expected steady-state mispredictions per
	// conditional branch under per-site saturating counters.
	MissRate float64
	// BranchesPerChar is the expected conditional branches executed
	// per text character (including the outer-loop branch).
	BranchesPerChar float64
	// MissesPerChar is the expected mispredictions per text character.
	MissesPerChar float64
	// States is the size of the product chain.
	States int
	// Iterations is how many lazy power-iteration steps convergence
	// took.
	Iterations int
}

// naiveWeakFail computes the MP failure table by brute force: wf[j]
// is the largest k < j with pat[:k] == pat[j-k:j] (so wf[0] = -1).
func naiveWeakFail(pat []byte) []int {
	m := len(pat)
	wf := make([]int, m+1)
	wf[0] = -1
	for j := 1; j <= m; j++ {
		wf[j] = 0
		for k := j - 1; k >= 1; k-- {
			if isBorder(pat, j, k) {
				wf[j] = k
				break
			}
		}
	}
	return wf
}

// naiveStrongFail computes the KMP failure table by brute force:
// kf[j] is the largest border k of pat[:j] with pat[k] != pat[j]
// (walking the full border chain, j itself included conceptually via
// k < j), or -1 when no such border exists.
func naiveStrongFail(pat []byte) []int {
	m := len(pat)
	kf := make([]int, m)
	for j := 0; j < m; j++ {
		kf[j] = -1
		for k := j - 1; k >= 0; k-- {
			if isBorder(pat, j, k) && pat[k] != pat[j] {
				kf[j] = k
				break
			}
		}
	}
	return kf
}

// isBorder reports whether pat[:k] is a border of pat[:j] (k < j):
// pat[:k] == pat[j-k:j].
func isBorder(pat []byte, j, k int) bool {
	for i := 0; i < k; i++ {
		if pat[i] != pat[j-k+i] {
			return false
		}
	}
	return true
}

// The sites the chain models (the outer site is handled in closed
// form).
const (
	siteGuard = iota
	siteCmp
	siteMatch
	numModelSites
)

type modelEvent struct {
	site  int
	taken bool
}

// matchWord replays the matcher's inner loop for one character from
// automaton state j, returning the branch events executed and the
// next state. This mirrors recordMatch's control flow but is written
// against the brute-force failure tables.
func matchWord(j int, c byte, pat []byte, loopFail []int, restart int) ([]modelEvent, int) {
	m := len(pat)
	var events []modelEvent
	jj := j
	for {
		guardTaken := jj >= 0
		events = append(events, modelEvent{siteGuard, guardTaken})
		if !guardTaken {
			break
		}
		cmpTaken := pat[jj] != c
		events = append(events, modelEvent{siteCmp, cmpTaken})
		if !cmpTaken {
			break
		}
		jj = loopFail[jj]
	}
	jj++
	matchTaken := jj == m
	events = append(events, modelEvent{siteMatch, matchTaken})
	if matchTaken {
		jj = restart
	}
	return events, jj
}

// ctrModel is the re-transcribed saturating-counter automaton: k-bit
// up/down counter predicting taken in the upper half of its range.
type ctrModel struct {
	max, mid, init int
}

func newCtrModel(bits uint) ctrModel {
	max := 1<<bits - 1
	return ctrModel{max: max, mid: max / 2, init: max/2 + 1}
}

func (c ctrModel) predict(v int) bool { return v > c.mid }

func (c ctrModel) update(v int, taken bool) int {
	if taken {
		if v < c.max {
			v++
		}
	} else if v > 0 {
		v--
	}
	return v
}

// AnalyzeMatch computes the expected steady-state misprediction rate
// of spec's matcher (mp or kmp only) under private per-site
// saturating counters of the given width. The pattern is regenerated
// from the spec's seed with the recorder's exact draw order, so the
// model analyzes the same program instance the recorder runs.
func AnalyzeMatch(spec Spec, ctrBits uint) (Analytic, error) {
	t := spec.Normalize()
	if err := t.Validate(); err != nil {
		return Analytic{}, err
	}
	if t.Name != "mp" && t.Name != "kmp" {
		return Analytic{}, fmt.Errorf("algotrace: analytic model covers mp and kmp, not %q", t.Name)
	}
	if ctrBits < 1 || ctrBits > 4 {
		return Analytic{}, fmt.Errorf("algotrace: analytic counter width %d out of range [1,4]", ctrBits)
	}

	// The recorder draws the pattern first; only the text (whose
	// distribution we model instead of sampling) follows.
	pat := genPattern(rng.NewXoshiro256(t.Seed), t.M, t.Sigma, t.Pat)
	m := len(pat)
	wf := naiveWeakFail(pat)
	loopFail := wf[:m]
	if t.Name == "kmp" {
		loopFail = naiveStrongFail(pat)
	}
	restart := wf[m]

	// Character distribution.
	probs := make([]float64, t.Sigma)
	if t.Dist == "bern" {
		probs[0] = t.P
		probs[1] = 1 - t.P
	} else {
		for c := range probs {
			probs[c] = 1.0 / float64(t.Sigma)
		}
	}

	// Precompute the deterministic branch word per (state, char).
	words := make([][]modelEvent, m*t.Sigma)
	nexts := make([]int, m*t.Sigma)
	for j := 0; j < m; j++ {
		for c := 0; c < t.Sigma; c++ {
			w, nj := matchWord(j, byte(c), pat, loopFail, restart)
			words[j*t.Sigma+c] = w
			nexts[j*t.Sigma+c] = nj
		}
	}

	// Product chain over (j, guard, cmp, match) counter states.
	ctr := newCtrModel(ctrBits)
	S := ctr.max + 1
	nStates := m * S * S * S
	pack := func(j, g, cm, mt int) int { return ((j*S+g)*S+cm)*S + mt }

	type edge struct {
		next             int
		prob             float64
		misses, branches float64
	}
	edges := make([][]edge, nStates)
	for j := 0; j < m; j++ {
		for g := 0; g < S; g++ {
			for cm := 0; cm < S; cm++ {
				for mt := 0; mt < S; mt++ {
					from := pack(j, g, cm, mt)
					es := make([]edge, 0, t.Sigma)
					for c := 0; c < t.Sigma; c++ {
						if probs[c] == 0 {
							continue
						}
						ctrs := [numModelSites]int{g, cm, mt}
						misses := 0
						w := words[j*t.Sigma+c]
						for _, ev := range w {
							if ctr.predict(ctrs[ev.site]) != ev.taken {
								misses++
							}
							ctrs[ev.site] = ctr.update(ctrs[ev.site], ev.taken)
						}
						es = append(es, edge{
							next:     pack(nexts[j*t.Sigma+c], ctrs[siteGuard], ctrs[siteCmp], ctrs[siteMatch]),
							prob:     probs[c],
							misses:   float64(misses),
							branches: float64(len(w)) + 1, // + the outer-loop branch
						})
					}
					edges[from] = es
				}
			}
		}
	}

	// Stationary distribution by lazy power iteration from the true
	// initial state.
	pi := make([]float64, nStates)
	pi[pack(0, ctr.init, ctr.init, ctr.init)] = 1
	next := make([]float64, nStates)
	const (
		tol      = 1e-13
		maxIters = 200000
	)
	iters := 0
	for ; iters < maxIters; iters++ {
		for i := range next {
			next[i] = 0.5 * pi[i]
		}
		for from, es := range edges {
			if pi[from] == 0 {
				continue
			}
			w := 0.5 * pi[from]
			for _, e := range es {
				next[e.next] += w * e.prob
			}
		}
		delta := 0.0
		for i := range next {
			delta += math.Abs(next[i] - pi[i])
		}
		pi, next = next, pi
		if delta < tol {
			break
		}
	}

	var missesPerChar, branchesPerChar float64
	for from, es := range edges {
		if pi[from] == 0 {
			continue
		}
		for _, e := range es {
			missesPerChar += pi[from] * e.prob * e.misses
			branchesPerChar += pi[from] * e.prob * e.branches
		}
	}
	return Analytic{
		MissRate:        missesPerChar / branchesPerChar,
		BranchesPerChar: branchesPerChar,
		MissesPerChar:   missesPerChar,
		States:          nStates,
		Iterations:      iters,
	}, nil
}

// ClosedFormIIDMissRate is the classical closed form for a k-bit
// saturating counter fed an iid Bernoulli(p) taken stream: the
// counter is a birth-death chain with stationary weights (p/q)^s, and
// the miss rate is the stationary probability of disagreeing with the
// outcome. For 1 bit this reduces to 2pq/(p+q) = 2pq; the product
// chain must reproduce it whenever a site's outcomes are iid (e.g.
// the cmp site of an m=1 pattern), which the tests cross-check.
func ClosedFormIIDMissRate(bits uint, p float64) float64 {
	if p <= 0 || p >= 1 {
		return 0
	}
	q := 1 - p
	max := 1<<bits - 1
	mid := max / 2
	ratio := p / q
	weight := 1.0
	total := 0.0
	miss := 0.0
	for s := 0; s <= max; s++ {
		total += weight
		if s <= mid {
			miss += weight * p // predicts not taken, outcome taken
		} else {
			miss += weight * q // predicts taken, outcome not taken
		}
		weight *= ratio
	}
	return miss / total
}
