package workload

import (
	"fmt"

	"gskew/internal/algotrace"
	"gskew/internal/trace"
)

// This file bridges the recorded-algorithm workloads
// (internal/algotrace) into the entry points the synthetic benchmarks
// already use, so every consumer — tracegen, predsim, the experiments
// scheduler, the trace pool, the server — accepts a workload *name*
// that is either a Table-1 benchmark ("groff") or an algo spec
// ("algo:kmp,n=300000,...") without caring which.

// IsAlgo reports whether name selects a recorded-algorithm workload.
func IsAlgo(name string) bool { return algotrace.IsSpec(name) }

// MaterializeAny materializes the full bounded trace for a workload
// name of either kind. For algo specs Config.Scale does not apply
// (the spec's own n/q/runs parameters set the dynamic length) and
// Config.SeedOffset is added to the spec's seed, mirroring its role
// for the synthetic benchmarks.
func MaterializeAny(name string, c Config) ([]trace.Branch, error) {
	if algotrace.IsSpec(name) {
		spec, err := algotrace.ParseSpec(name)
		if err != nil {
			return nil, err
		}
		spec.Seed += c.SeedOffset
		return algotrace.Record(spec)
	}
	spec, err := ByName(name)
	if err != nil {
		return nil, err
	}
	return Materialize(spec, c)
}

// OpenAny returns a bounded trace.Source for a workload name of
// either kind, with the seed offset applied as MaterializeAny applies
// it. Synthetic benchmarks are generated lazily as they are pulled;
// algo workloads are an algotrace.Stream, which the simulator consumes
// as a trace.Producer — the algorithm runs while it is simulated, one
// block at a time — and which records itself whole only if pulled.
func OpenAny(name string, c Config) (trace.Source, error) {
	if algotrace.IsSpec(name) {
		spec, err := algotrace.ParseSpec(name)
		if err != nil {
			return nil, err
		}
		spec.Seed += c.SeedOffset
		st, err := algotrace.NewStream(spec)
		if err != nil {
			return nil, err
		}
		return st, nil
	}
	spec, err := ByName(name)
	if err != nil {
		return nil, err
	}
	g, err := New(spec, c)
	if err != nil {
		return nil, err
	}
	return NewTake(g, g.Length()), nil
}

// ValidateName checks that name resolves to a workload of either
// kind, without materializing anything.
func ValidateName(name string) error {
	if algotrace.IsSpec(name) {
		_, err := algotrace.ParseSpec(name)
		return err
	}
	_, err := ByName(name)
	return err
}

// Family is one row of the workload-family listing exposed by
// `tracegen -list`.
type Family struct {
	// Name is the workload name or spec-grammar prefix to pass as
	// -bench.
	Name string
	// Keys documents the accepted parameters.
	Keys string
	// Doc is a one-line description.
	Doc string
}

// AllFamilies lists every registered workload family: the six
// synthetic Table-1 benchmarks, then the recorded-algorithm families.
func AllFamilies() []Family {
	var out []Family
	for _, s := range Benchmarks() {
		out = append(out, Family{
			Name: s.Name,
			Keys: "scale,seed",
			Doc: fmt.Sprintf("synthetic IBS-style workload, %d static / %d dynamic conditionals at scale 1",
				s.StaticBranches, s.DynamicBranches),
		})
	}
	for _, f := range algotrace.Families() {
		out = append(out, Family{Name: f.Name, Keys: f.Keys, Doc: "recorded real algorithm: " + f.Doc})
	}
	return out
}
