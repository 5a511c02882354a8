package experiments

import (
	"slices"
	"testing"

	"gskew/internal/alias"
	"gskew/internal/history"
	"gskew/internal/indexfn"
	"gskew/internal/predictor"
	"gskew/internal/sim"
	"gskew/internal/trace"
	"gskew/internal/workload"
)

// fuzzBranches decodes a fuzz input into a trace: each byte is one
// record whose low addrBits bits pick the address and whose top bit is
// the outcome; it is an (always taken) unconditional instead when bits
// 4-6 are all set, one record in eight. Histories and substreams
// repeat often.
func fuzzBranches(stream []byte, addrBits uint) []trace.Branch {
	branches := make([]trace.Branch, len(stream))
	for i, b := range stream {
		branches[i] = trace.Branch{PC: uint64(b) & (1<<addrBits - 1), Taken: b&0x80 != 0}
		if b&0x70 == 0x70 {
			branches[i].Kind, branches[i].Taken = trace.Unconditional, true
		}
	}
	return branches
}

// FuzzUnaliasedReplay diffs the ID-stream replay of the unaliased
// table (substreamProfile.unaliased, the Table 2 and fig11 path)
// against predictor.Unaliased run through sim.RunMany with
// SkipFirstUse, the path it replaced, over history lengths 0-16 and
// counter widths 1-3: the counts must be equal, every counted
// reference's prediction must equal the predictor's, and the substream
// count and ratio must equal the predictor's.
func FuzzUnaliasedReplay(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(3), []byte{0, 1, 2, 0, 1, 3, 0x80, 0x81, 0, 2})
	f.Add(uint8(0), uint8(1), uint8(1), []byte{5, 5, 5, 6, 7, 5, 6, 0x85, 0x85, 0x05})
	f.Add(uint8(16), uint8(3), uint8(4), []byte{0x10, 0x21, 0xf2, 0x43, 0x10, 0x54, 0x75, 0x21, 0xF0, 0x0F, 0x10, 0x90})
	f.Add(uint8(4), uint8(2), uint8(5), []byte{})
	f.Fuzz(func(t *testing.T, hist8, ctr8, addrBits8 uint8, stream []byte) {
		histBits := uint(hist8 % 17)
		ctrBits := uint(ctr8%3) + 1
		branches := fuzzBranches(stream, uint(addrBits8%6)+1)

		p := internStream(branches, histBits)
		preds := make([]uint64, len(p.outcomes))
		got := p.unaliased(ctrBits, preds)
		res, err := sim.RunMany(trace.NewSliceSource(branches),
			[]predictor.Predictor{predictor.NewUnaliased(histBits, ctrBits)}, sim.Options{SkipFirstUse: true})
		if err != nil {
			t.Fatal(err)
		}
		want := res[0]
		if got.Conditionals != want.Conditionals || got.Mispredicts != want.Mispredicts || got.FirstUses != want.FirstUses {
			t.Fatalf("replay %+v, sim %+v", got, want)
		}

		u := predictor.NewUnaliased(histBits, ctrBits)
		ghr := history.NewGlobal(histBits)
		addrs := map[uint64]bool{}
		i := 0
		for _, b := range branches {
			if b.Kind == trace.Conditional {
				addrs[b.PC] = true
				h := ghr.Bits()
				if u.Seen(b.PC, h) {
					want := u.Predict(b.PC, h)
					if got := bitAt(preds, i); got != want {
						t.Fatalf("reference %d: replay predicts %v, Unaliased %v", i, got, want)
					}
				}
				u.Update(b.PC, h, b.Taken)
				i++
			}
			ghr.Shift(b.Taken)
		}
		if len(p.addrs) != u.Substreams() {
			t.Fatalf("replay has %d substreams, Unaliased %d", len(p.addrs), u.Substreams())
		}
		ratio := 0.0
		if len(addrs) > 0 {
			ratio = float64(u.Substreams()) / float64(len(addrs))
		}
		if got := p.substreamRatio(); got != ratio {
			t.Fatalf("substream ratio %v, Unaliased substreams per address %v", got, ratio)
		}
	})
}

// FuzzInterferenceReplay diffs the ID-stream interference
// classification (substreamProfile.interference, the ext-interference
// path) against alias.Interference fed reference by reference, over
// gshare and gselect tables of 2-32 entries, history lengths 0-16 and
// counter widths 1-3. One oracle replay serves both tables, as it
// serves both sizes in ext-interference.
func FuzzInterferenceReplay(f *testing.F) {
	f.Add(uint8(2), uint8(2), uint8(1), []byte{0, 4, 0, 4, 0x80, 0x84, 0x80, 0, 4, 1, 5})
	f.Add(uint8(0), uint8(1), uint8(0), []byte{0x80, 0x84, 0x80, 0x04, 0x80, 0x04, 0x80, 0x04})
	f.Add(uint8(8), uint8(3), uint8(4), []byte{0x10, 0x21, 0xf2, 0x43, 0x10, 0x54, 0x75, 0x21, 0xF0, 0x0F, 0x10, 0x90})
	f.Add(uint8(16), uint8(2), uint8(2), []byte{})
	f.Fuzz(func(t *testing.T, hist8, ctr8, entries8 uint8, stream []byte) {
		histBits := uint(hist8 % 17)
		ctrBits := uint(ctr8%3) + 1
		entriesBits := uint(entries8%5) + 1
		branches := fuzzBranches(stream, 6)

		p := internStream(branches, histBits)
		oracle := make([]uint64, len(p.outcomes))
		p.unaliased(ctrBits, oracle)
		for _, fn := range []indexfn.Func{indexfn.NewGShare(entriesBits, histBits), indexfn.NewGSelect(entriesBits, histBits)} {
			got := p.interference(fn, ctrBits, oracle)
			n := alias.NewInterference(fn, ctrBits)
			ghr := history.NewGlobal(histBits)
			for _, b := range branches {
				if b.Kind == trace.Conditional {
					n.Observe(b.PC, ghr.Bits(), b.Taken)
				}
				ghr.Shift(b.Taken)
			}
			if want := n.Stats(); got != want {
				t.Fatalf("%s: replay %+v, Interference %+v", fn.Name(), got, want)
			}
		}
	})
}

// TestReplicatePrefixMatchesHalfScale: ext-variance's replicate 0,
// cut from the cached trace, is exactly the trace workload.Materialize
// generates at half the Context's scale, for every benchmark.
func TestReplicatePrefixMatchesHalfScale(t *testing.T) {
	for _, scale := range []float64{0.002, 0.0031} {
		ctx := &Context{Scale: scale, SeedOffset: 7, Sched: NewSched(1)}
		for _, name := range ctx.BenchmarkNames() {
			spec, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			branches, err := ctx.Trace(name)
			if err != nil {
				t.Fatal(err)
			}
			half := workload.Config{Scale: ctx.scale() / 2, SeedOffset: ctx.SeedOffset}
			want, err := workload.Materialize(spec, half)
			if err != nil {
				t.Fatal(err)
			}
			got := conditionalPrefix(branches, workload.Length(spec, half))
			if !slices.Equal(got, want) {
				t.Errorf("scale %g, %s: prefix of %d records, half-scale generation %d", scale, name, len(got), len(want))
			}
		}
	}
}
