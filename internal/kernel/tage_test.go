package kernel

import (
	"testing"

	"gskew/internal/predictor"
	"gskew/internal/rng"
)

// tageCases span one to eight components, histories inside one row
// chunk and across all three, tag and counter widths, and runner
// registers narrower and wider than the predictor's history.
var tageCases = []struct {
	spec string
	hist uint // runner history width
}{
	{"tage:n=6,k=8,kmin=4,tables=1,tag=4,ctr=2", 8},
	{"tage:n=6,k=12,kmin=4,tables=3,tag=5,ctr=2", 12},
	{"tage:n=7,k=20,kmin=4,tables=4,tag=7,ctr=3", 20},
	{"tage:n=8,k=28,kmin=4,tables=5,tag=9,ctr=3", 28},
	{"tage:n=9,k=20,kmin=4,tables=4,tag=8,ctr=3", 20},
	{"tage:n=5,k=30,kmin=2,tables=8,tag=16,ctr=1", 30},
	{"tage:n=7,k=24,kmin=3,tables=4,tag=6,ctr=3", 13},
	{"tage:n=7,k=16,kmin=4,tables=3,tag=6,ctr=3", 40},
}

func mustTAGE(t testing.TB, spec string) *predictor.TAGE {
	t.Helper()
	s, err := predictor.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.New()
	if err != nil {
		t.Fatal(err)
	}
	return p.(*predictor.TAGE)
}

// TestTAGEKernelMatchesInterfacePath: the compiled TAGE kernel and the
// predictor's Step agree on every prediction over streams long enough
// to cross the usefulness-ageing period, through both Step and
// StepBatch in random block lengths, and leave storage that answers
// every probe identically.
func TestTAGEKernelMatchesInterfacePath(t *testing.T) {
	for _, tc := range tageCases {
		t.Run(tc.spec, func(t *testing.T) {
			iface, kp := mustTAGE(t, tc.spec), mustTAGE(t, tc.spec)
			kern, ok := Compile(kp, tc.hist)
			if !ok {
				t.Fatal("tage did not compile")
			}
			r := rng.NewXoshiro256(rng.Mix64(uint64(len(tc.spec)) + uint64(tc.hist)))
			mask := uint64(1)<<tc.hist - 1
			raw := uint64(0)
			steps := make([]Step, 0, 5000)
			for done := 0; done < 40000; {
				n := batchLengths[r.Uint64()%uint64(len(batchLengths))]
				if n == 0 {
					n = 1 + int(r.Uint64()%5000)
				}
				steps = steps[:0]
				want := 0
				for range n {
					pc := r.Uint64() & 0x7ff
					taken := r.Uint64()%3 != 0
					if iface.Step(pc, raw&mask, taken) != taken {
						want++
					}
					steps = append(steps, Step{PC: pc, Hist: raw, Taken: taken})
					raw = raw<<1 | b2u(taken)
				}
				if n == 1 {
					s := steps[0]
					if got := kern.Step(s.PC, s.Hist, s.Taken) != s.Taken; got != (want == 1) {
						t.Fatalf("Step at %d: kernel mispredicted %v, interface %v", done, got, want == 1)
					}
				} else if got := kern.StepBatch(steps); got != want {
					t.Fatalf("block of %d at step %d: StepBatch counted %d mispredicts, interface %d", n, done, got, want)
				}
				done += n
			}
			for i := 0; i < 4000; i++ {
				pc, h := r.Uint64()&0x7ff, r.Uint64()&mask
				if kp.Predict(pc, h) != iface.Predict(pc, h) {
					t.Fatalf("post-run state differs at pc=%#x hist=%#x", pc, h)
				}
			}
		})
	}
}

// TestTAGEKernelKeepsPlantedFold: the row tables are built through the
// predictor's own fold, so a planted fold fault is reproduced by the
// kernel and never leaks into the rows honest kernels share.
func TestTAGEKernelKeepsPlantedFold(t *testing.T) {
	const spec = "tage:n=6,k=16,kmin=4,tables=4,tag=6,ctr=3"
	bad, twin := mustTAGE(t, spec), mustTAGE(t, spec)
	predictor.TamperTAGEFold(bad)
	predictor.TamperTAGEFold(twin)
	kern, ok := Compile(bad, 16)
	if !ok {
		t.Fatal("tage did not compile")
	}
	good, _ := Compile(mustTAGE(t, spec), 16)
	same := true
	for i, e := range kern.(*tageKernel).r0 {
		same = same && e == good.(*tageKernel).r0[i]
	}
	if same {
		t.Fatal("planted fold left the row tables unchanged")
	}
	r := rng.NewXoshiro256(5)
	hist := uint64(0)
	for i := 0; i < 20000; i++ {
		pc := r.Uint64() & 0x3ff
		taken := r.Uint64()&1 == 0
		if kern.Step(pc, hist, taken) != twin.Step(pc, hist, taken) {
			t.Fatalf("step %d: tampered kernel and tampered predictor disagree", i)
		}
		hist = (hist<<1 | b2u(taken)) & 0xffff
	}
	fresh, _ := Compile(mustTAGE(t, spec), 16)
	if &fresh.(*tageKernel).r1[0] != &good.(*tageKernel).r1[0] {
		t.Fatal("honest kernels of one geometry do not share rows")
	}
}

// TestTAGEStepBatchZeroAllocs is the allocation gate for the compiled
// TAGE loop.
func TestTAGEStepBatchZeroAllocs(t *testing.T) {
	steps := make([]Step, 4096)
	r := rng.NewXoshiro256(17)
	hist := uint64(0)
	for i := range steps {
		taken := r.Uint64()&1 == 0
		steps[i] = Step{PC: r.Uint64() & 0xffff, Hist: hist, Taken: taken}
		hist = hist<<1 | b2u(taken)
	}
	kern, ok := Compile(mustTAGE(t, "tage:n=9,k=20,kmin=4,tables=4,tag=8,ctr=3"), 20)
	if !ok {
		t.Fatal("tage did not compile")
	}
	if allocs := testing.AllocsPerRun(10, func() { kern.StepBatch(steps) }); allocs != 0 {
		t.Errorf("tage StepBatch allocates %.1f objects per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { kern.Step(1, 2, true) }); allocs != 0 {
		t.Errorf("tage Step allocates %.1f objects per call, want 0", allocs)
	}
}
