package kernel

// StateKernel is the state-access surface every compiled
// counter-table kernel implements (all but TAGE, whose tag-steered
// state is not a set of counter banks): the counter banks the kernel
// trains (aliasing the predictor's own storage, so reads and writes
// through them are reads and writes of the predictor) and an
// index-only pass marking which cells a block of steps touches.
//
// The segment-parallel runner (internal/sim) is built on two facts
// this interface exposes. First, every bank index is a pure function
// of the staged (PC, history) pair — counter state never feeds back
// into indexing — so the touched-cell set of a trace segment is
// identical between a speculatively warmed replica and the exact
// serial execution. Second, a segment's predictions read only its
// touched cells. Together these make the boundary convergence check
// sound: if a replica's warm state agrees with the exact state on the
// segment's touched set, the replica's segment execution is
// bit-identical to the serial one.
type StateKernel interface {
	Kernel
	// Banks returns the kernel's counter banks in a fixed order
	// (single-table kernels: one bank; skewed: banks 0..2; 2Bc-gskew:
	// BIM, G0, G1, META).
	Banks() [][]uint8
	// TouchBatch sets marks[b][i] = 1 for every cell i of bank b that
	// stepping steps would read or write, without mutating any
	// counter state. marks must hold one slice per bank, each of that
	// bank's length; existing marks are preserved (the pass only
	// sets). It performs no allocation.
	TouchBatch(steps []Step, marks [][]uint8)
}

func (k *bimodalKernel) Banks() [][]uint8 { return [][]uint8{k.cells} }

func (k *bimodalKernel) TouchBatch(steps []Step, marks [][]uint8) {
	m := marks[0]
	for i := range steps {
		m[k.index(steps[i].PC, steps[i].Hist)] = 1
	}
}

func (k *gshareKernel) Banks() [][]uint8 { return [][]uint8{k.cells} }

func (k *gshareKernel) TouchBatch(steps []Step, marks [][]uint8) {
	m := marks[0]
	for i := range steps {
		m[k.index(steps[i].PC, steps[i].Hist)] = 1
	}
}

func (k *gselectKernel) Banks() [][]uint8 { return [][]uint8{k.cells} }

func (k *gselectKernel) TouchBatch(steps []Step, marks [][]uint8) {
	m := marks[0]
	for i := range steps {
		m[k.index(steps[i].PC, steps[i].Hist)] = 1
	}
}

func (k *skewKernel) Banks() [][]uint8 { return [][]uint8{k.b0, k.b1, k.b2} }

func (k *skewKernel) TouchBatch(steps []Step, marks [][]uint8) {
	m0, m1, m2 := marks[0], marks[1], marks[2]
	for i := range steps {
		i0, i1, i2 := k.indices(steps[i].PC, steps[i].Hist)
		m0[i0] = 1
		m1[i1] = 1
		m2[i2] = 1
	}
}

func (k *tbcKernel) Banks() [][]uint8 { return [][]uint8{k.bim, k.g0, k.g1, k.meta} }

func (k *tbcKernel) TouchBatch(steps []Step, marks [][]uint8) {
	mB, m0, m1, mM := marks[0], marks[1], marks[2], marks[3]
	for i := range steps {
		iBim, iG0, iG1, iMeta := k.indices(steps[i].PC, steps[i].Hist)
		mB[iBim] = 1
		m0[iG0] = 1
		m1[iG1] = 1
		mM[iMeta] = 1
	}
}
