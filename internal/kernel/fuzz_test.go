package kernel

import (
	"testing"

	"gskew/internal/predictor"
)

// FuzzSkewShapes diffs every compiled skewed shape against the
// interface-path GSkewed: three, five and seven banks, shared
// hysteresis with groups of 1 to 8 entries, the enhanced bank 0, both
// update policies and 1- to 4-bit counters (shapes the predictor
// rejects are folded onto ones it accepts: a wider skew has private
// counters and no enhanced bank, shared hysteresis has 2-bit
// counters). Each pair of input bytes is one step — a 12-bit PC, the
// outcome, and whether a StepBatch block ends after it — so blocks
// split at random points; every block's mispredict count and the
// final tables must match.
func FuzzSkewShapes(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint8(1), []byte{1, 0x80, 2, 0xc0, 1, 0x00, 3, 0x81, 1, 0x40})
	f.Add(uint8(1), uint8(0), uint8(2), uint8(3), []byte{0, 0x80, 0, 0x80, 0, 0x00, 0x20, 0x41, 0, 0x80})
	f.Add(uint8(2), uint8(0), uint8(0x34), uint8(2), []byte{7, 0x80, 7, 0x00, 7, 0xc0, 9, 0x80, 7, 0x00})
	f.Add(uint8(0), uint8(1), uint8(0x11), uint8(1), []byte{4, 0x80, 5, 0x80, 4, 0x40, 5, 0x00, 4, 0x00, 5, 0x80})
	f.Add(uint8(0), uint8(3), uint8(0x2a), uint8(1), []byte{0x10, 0x80, 0x11, 0x00, 0x12, 0xc0, 0x10, 0x00})
	f.Fuzz(func(t *testing.T, banks8, shh8, flags, ctr8 uint8, data []byte) {
		banks := []int{3, 5, 7}[banks8%3]
		shh := uint(shh8 % 4)
		ctr := uint(ctr8%4) + 1
		enhanced := flags&1 != 0 && banks == 3
		if banks > 3 {
			shh = 0
		}
		if shh > 0 {
			ctr = 2
		}
		policy := predictor.PartialUpdate
		if flags&2 != 0 {
			policy = predictor.TotalUpdate
		}
		n := 4 + uint(flags>>2&3)
		hist := uint(flags>>4) % 13
		cfg := predictor.Config{
			Banks: banks, BankBits: n, HistoryBits: hist, CounterBits: ctr,
			Policy: policy, Enhanced: enhanced, SharedHysteresis: shh,
		}
		iface, kp := predictor.MustGSkewed(cfg), predictor.MustGSkewed(cfg)
		kern, ok := Compile(kp, hist)
		if !ok {
			t.Fatalf("%+v did not compile", cfg)
		}
		mask := uint64(1)<<hist - 1
		raw := uint64(0)
		var block []Step
		want, blocks := 0, 0
		flush := func() {
			if got := kern.StepBatch(block); got != want {
				t.Fatalf("%+v block %d of %d steps: StepBatch counted %d mispredicts, interface %d",
					cfg, blocks, len(block), got, want)
			}
			block, want = block[:0], 0
			blocks++
		}
		for i := 0; i+1 < len(data); i += 2 {
			pc := uint64(data[i]) | uint64(data[i+1]&0x0f)<<8
			taken := data[i+1]&0x80 != 0
			if iface.Predict(pc, raw&mask) != taken {
				want++
			}
			iface.Update(pc, raw&mask, taken)
			block = append(block, Step{PC: pc, Hist: raw, Taken: taken})
			raw = raw<<1 | b2u(taken)
			if data[i+1]&0x40 != 0 {
				flush()
			}
		}
		flush()
		requireSameBanks(t, "StepBatch", kern, iface, hist)
	})
}
