package kernel

import (
	"testing"

	"gskew/internal/predictor"
	"gskew/internal/refmodel"
	"gskew/internal/rng"
)

// The reference: the vote-and-train rules written in the executable
// specification's terms (internal/refmodel) rather than the builders'
// branch-free arithmetic — each bank a refmodel.SpecCounter, the
// majority counted as votes, the update rules as the spec states them
// (SpecGSkewed.Update, SpecTwoBcGSkew.Update). The joint tables must
// reproduce it entry for entry, and the table-driven loops step for
// step, so a wrong majority, keep mask or META target in joint.go
// shows here as well as in the diff harness.

// specCounter is a w-bit spec counter in state s.
func specCounter(w uint, s uint8) refmodel.SpecCounter {
	c := refmodel.NewSpecCounter(w)
	c.State = int(s)
	return c
}

// refSkewTransition is one skewed step on bank states s (any odd bank
// count) under outcome taken: the prediction is the majority of the
// banks; total update trains every bank, partial update skips a
// dissenting bank when the majority was right.
func refSkewTransition(w uint, partial bool, s []uint8, taken bool) (next []uint8, wrong bool) {
	per := make([]bool, len(s))
	next = make([]uint8, len(s))
	ayes := 0
	for b, st := range s {
		per[b] = specCounter(w, st).Predict()
		if per[b] {
			ayes++
		}
	}
	overall := 2*ayes > len(s)
	for b, st := range s {
		next[b] = st
		if partial && overall == taken && per[b] != taken {
			continue
		}
		next[b] = uint8(specCounter(w, st).Update(taken).State)
	}
	return next, overall != taken
}

// refTBCTransition is one 2Bc-gskew step on BIM, G0, G1 and META
// states s under outcome taken. META picks the majority of BIM, G0
// and G1 or BIM alone; a mispredict trains the three direction
// tables, a right majority those that agreed with it, a right BIM
// BIM alone; META trains when the two strategies differed, toward the
// one that was right (toward the wrong one under flip, the planted
// chooser inversion).
func refTBCTransition(flip bool, s [4]uint8, taken bool) (next [4]uint8, wrong bool) {
	const bim, g0, g1, meta = 0, 1, 2, 3
	var per [4]bool
	for b, st := range s {
		per[b] = specCounter(2, st).Predict()
	}
	ayes := 0
	for _, p := range per[:meta] {
		if p {
			ayes++
		}
	}
	egskew := ayes >= 2
	final := per[bim]
	if per[meta] {
		final = egskew
	}
	next = s
	train := func(b int, dir bool) { next[b] = uint8(specCounter(2, s[b]).Update(dir).State) }
	switch {
	case final != taken:
		train(bim, taken)
		train(g0, taken)
		train(g1, taken)
	case per[meta]:
		for _, b := range []int{bim, g0, g1} {
			if per[b] == taken {
				train(b, taken)
			}
		}
	default:
		train(bim, taken)
	}
	if per[bim] != egskew {
		train(meta, (egskew == taken) != flip)
	}
	return next, final != taken
}

// refSkewStepBatch is skewKernel.StepBatch with refSkewTransition in
// place of the joint table.
func refSkewStepBatch(k *skewKernel, steps []Step) int {
	m := k.bankMask
	mis := 0
	for i := range steps {
		s := &steps[i]
		v := s.PC<<k.kp | s.Hist&k.vHistMask
		pk := k.pa[v&m] ^ k.pb[v>>k.n&m]
		i0 := pk & m
		if k.enhanced {
			i0 = s.PC & m
		}
		i1, i2 := pk>>lutField&m, pk>>(2*lutField)&m
		n, wrong := refSkewTransition(k.ctrBits, k.partial, []uint8{k.b0[i0], k.b1[i1], k.b2[i2]}, s.Taken)
		k.b0[i0], k.b1[i1], k.b2[i2] = n[0], n[1], n[2]
		mis += int(bit(wrong))
	}
	return mis
}

// refTBCStepBatch is tbcKernel.StepBatch with refTBCTransition in
// place of the joint table.
func refTBCStepBatch(k *tbcKernel, flip bool, steps []Step) int {
	m := k.idxMask
	mis := 0
	for i := range steps {
		s := &steps[i]
		vA := s.PC<<k.k0 | s.Hist&k.m0
		vB := s.PC<<k.k1 | s.Hist&k.m1
		pkA := k.pa[vA&m] ^ k.pb[vA>>k.n&m]
		pkB := k.pa[vB&m] ^ k.pb[vB>>k.n&m]
		iBim, iMeta := s.PC&m, pkA&m
		iG0, iG1 := pkA>>lutField&m, pkB>>(2*lutField)&m
		n, wrong := refTBCTransition(flip, [4]uint8{k.bim[iBim], k.g0[iG0], k.g1[iG1], k.meta[iMeta]}, s.Taken)
		k.bim[iBim], k.g0[iG0], k.g1[iG1], k.meta[iMeta] = n[0], n[1], n[2], n[3]
		mis += int(bit(wrong))
	}
	return mis
}

// TestSkewJointTablesMatchSpec: every entry of every cached skewed
// joint table — counter widths 1 to MaxSkewCtrBits under both policies
// — whose fields hold valid w-bit states holds the spec reference's
// next states and miss bit for the states and outcome its index
// encodes, and no table exceeds 32 KiB. Entries with a field beyond a
// narrow counter's range are never indexed (bank states stay in
// range), so they are not checked.
func TestSkewJointTablesMatchSpec(t *testing.T) {
	for w := uint(1); w <= MaxSkewCtrBits; w++ {
		for _, partial := range []bool{false, true} {
			tab := skewJointFor(w, partial)
			if bytes := len(tab) * 4; bytes > 32<<10 {
				t.Errorf("w=%d: joint table is %d bytes, over 32 KiB", w, bytes)
			}
			if skewJointFor(w, partial) != tab {
				t.Errorf("w=%d partial=%v: table rebuilt instead of cached", w, partial)
			}
			checked := 0
			for j := range tab {
				s := [3]uint8{uint8(j & 15), uint8(j >> 4 & 15), uint8(j >> 8 & 15)}
				tk := j>>12 == 1
				if max(s[0], s[1], s[2]) >= 1<<w {
					continue
				}
				n, wrong := refSkewTransition(w, partial, s[:], tk)
				want := uint32(n[0]) | uint32(n[1])<<8 | uint32(n[2])<<16 | uint32(bit(wrong))<<skewMissShift
				if tab[j] != want {
					t.Fatalf("w=%d partial=%v states %v taken=%v: entry %#x, spec %#x",
						w, partial, s, tk, tab[j], want)
				}
				checked++
			}
			if want := 1 << (3*w + 1); checked != want {
				t.Fatalf("w=%d: checked %d entries with valid states, want %d", w, checked, want)
			}
		}
	}
}

// TestMBankJointTablesMatchSpec: the same for the cached five-bank
// tables (1- and 2-bit counters under both policies, 2-bit fields),
// which stay within 4 KiB.
func TestMBankJointTablesMatchSpec(t *testing.T) {
	for w := uint(1); w <= 2; w++ {
		for _, partial := range []bool{false, true} {
			tab := mbankJointFor(5, w, partial)
			if bytes := len(tab) * 2; bytes > 4<<10 {
				t.Errorf("w=%d: joint table is %d bytes, over 4 KiB", w, bytes)
			}
			checked := 0
			for j := range tab {
				s := make([]uint8, 5)
				for b := range s {
					s[b] = uint8(j >> (2 * b) & 3)
				}
				if max(s[0], s[1], s[2], s[3], s[4]) >= 1<<w {
					continue
				}
				tk := j>>10 == 1
				n, wrong := refSkewTransition(w, partial, s, tk)
				want := uint16(bit(wrong)) << 10
				for b, nb := range n {
					want |= uint16(nb) << (2 * b)
				}
				if tab[j] != want {
					t.Fatalf("w=%d partial=%v states %v taken=%v: entry %#x, spec %#x", w, partial, s, tk, tab[j], want)
				}
				checked++
			}
			if want := 1 << (5*w + 1); checked != want {
				t.Fatalf("w=%d: checked %d entries with valid states, want %d", w, checked, want)
			}
		}
	}
}

// TestTBCJointTablesMatchSpec: the same for both cached 2Bc-gskew
// tables (metaFlip 0 and 1), over every 2-bit state of BIM, G0, G1 and
// META and both outcomes.
func TestTBCJointTablesMatchSpec(t *testing.T) {
	for flip := uint8(0); flip <= 1; flip++ {
		tab := tbcJointFor(flip)
		if tbcJointFor(flip) != tab {
			t.Errorf("flip=%d: table rebuilt instead of cached", flip)
		}
		for j := range tab {
			s := [4]uint8{uint8(j & 3), uint8(j >> 2 & 3), uint8(j >> 4 & 3), uint8(j >> 6 & 3)}
			tk := j>>8 == 1
			n, wrong := refTBCTransition(flip == 1, s, tk)
			want := uint64(n[0]) | uint64(n[1])<<8 | uint64(n[2])<<16 | uint64(n[3])<<24 | uint64(bit(wrong))<<tbcMissShift
			if tab[j] != want {
				t.Fatalf("flip=%d states %v taken=%v: entry %#x, spec %#x", flip, s, tk, tab[j], want)
			}
		}
	}
	if tbcJointFor(0) == tbcJointFor(1) {
		t.Error("the two chooser flips share one table")
	}
}

// TestJointStepBatchMatchesSpecLoop: the table-driven loops and the
// spec reference loops, driven over the same random blocks
// on twin predictors, count the same mispredicts per block and leave
// identical tables — every skewed width under both policies, plain and
// enhanced, and 2Bc-gskew with and without the planted chooser flip.
func TestJointStepBatchMatchesSpecLoop(t *testing.T) {
	type twin struct {
		name string
		mk   func() predictor.Predictor
		flip bool
	}
	var twins []twin
	for w := uint(1); w <= MaxSkewCtrBits; w++ {
		for _, pol := range []predictor.UpdatePolicy{predictor.PartialUpdate, predictor.TotalUpdate} {
			for _, enh := range []bool{false, true} {
				twins = append(twins, twin{name: "skew", mk: func() predictor.Predictor {
					return predictor.MustGSkewed(predictor.Config{
						BankBits: 7, HistoryBits: 10, CounterBits: w, Policy: pol, Enhanced: enh,
					})
				}})
			}
		}
	}
	for _, flip := range []bool{false, true} {
		twins = append(twins, twin{name: "2bcgskew", flip: flip, mk: func() predictor.Predictor {
			p := predictor.MustSpec(predictor.Spec{Family: "2bcgskew", N: 7, HistShort: 5, Hist: 12})
			if flip && !predictor.TamperTwoBcMeta(p) {
				t.Fatal("TamperTwoBcMeta refused a 2bcgskew")
			}
			return p
		}})
	}
	r := rng.NewXoshiro256(29)
	for i, tw := range twins {
		got, _ := Compile(tw.mk(), 12)
		want, _ := Compile(tw.mk(), 12)
		if got == nil || want == nil {
			t.Fatalf("%s #%d did not compile", tw.name, i)
		}
		raw := uint64(0)
		steps := make([]Step, 0, 3000)
		for done := 0; done < 30000; done += len(steps) {
			steps = steps[:0]
			for range 1 + r.Uint64()%3000 {
				taken := r.Uint64()%5 != 0
				steps = append(steps, Step{PC: r.Uint64() & 0x7ff, Hist: raw, Taken: taken})
				raw = raw<<1 | b2u(taken)
			}
			var g, w int
			switch k := want.(type) {
			case *skewKernel:
				w = refSkewStepBatch(k, steps)
			case *tbcKernel:
				w = refTBCStepBatch(k, tw.flip, steps)
			}
			if g = got.StepBatch(steps); g != w {
				t.Fatalf("%s #%d: block at step %d: joint loop %d mispredicts, spec loop %d", tw.name, i, done, g, w)
			}
		}
		gb, wb := banksOf(t, got), banksOf(t, want)
		for b := range wb {
			for c := range wb[b] {
				if gb[b][c] != wb[b][c] {
					t.Fatalf("%s #%d: table %d cell %d is %d, spec loop left %d", tw.name, i, b, c, gb[b][c], wb[b][c])
				}
			}
		}
	}
}

// TestTamperJointIsolatedFromCache: a joint-table fault lands in the
// tampered kernel's own copy only, and malformed faults are refused.
func TestTamperJointIsolatedFromCache(t *testing.T) {
	mkSkew := func() Kernel {
		k, _ := Compile(predictor.MustGSkewed(predictor.Config{BankBits: 6, HistoryBits: 6}), 6)
		return k
	}
	bad := mkSkew()
	const last = skewJointLen - 1
	if err := TamperJoint(bad, last, 3, 1); err != nil {
		t.Fatal(err)
	}
	if got, want := bad.(*skewKernel).joint[last], skewJointFor(2, true)[last]^1<<skewMissShift; got != want {
		t.Fatalf("tampered entry %#x, want %#x", got, want)
	}
	if mkSkew().(*skewKernel).joint[last] != skewJointFor(2, true)[last] || skewJointFor(2, true)[last]>>skewMissShift != 0 {
		t.Fatal("tamper leaked into the shared joint cache")
	}

	tbc, _ := Compile(predictor.MustSpec(predictor.Spec{Family: "2bcgskew", N: 6, HistShort: 4, Hist: 8}), 8)
	if err := TamperJoint(tbc, 511, 1, 2); err != nil {
		t.Fatal(err)
	}
	if got, want := tbc.(*tbcKernel).joint[511], tbcJointFor(0)[511]^2<<8; got != want {
		t.Fatalf("tampered 2bc entry %#x, want %#x", got, want)
	}
	if tbcJointFor(0)[511] != uint64(3)|3<<8|3<<16|3<<24 {
		t.Fatal("tamper leaked into the shared 2bc joint cache")
	}

	for _, bad := range []struct {
		entry uint64
		field int
		delta uint8
	}{
		{last + 1, 0, 1}, // entry out of range
		{0, 4, 1},        // no such field
		{0, -1, 1},       // no such field
		{0, 0, 4},        // wider than a 2-bit counter
		{0, 0, 0},        // no fault
		{0, 3, 2},        // the miss bit is one bit
	} {
		if err := TamperJoint(mkSkew(), bad.entry, bad.field, bad.delta); err == nil {
			t.Errorf("TamperJoint accepted entry %d field %d delta %d", bad.entry, bad.field, bad.delta)
		}
	}
	bm, _ := Compile(predictor.MustSpec(predictor.Spec{Family: "bimodal", N: 8, Ctr: 2}), 0)
	if err := TamperJoint(bm, 0, 0, 1); err == nil {
		t.Error("TamperJoint accepted a kernel without a joint table")
	}
}
