package refmodel

import "testing"

// TestSpecReferencePredictorsByHand walks both reference specs through
// a hand-checked sequence: a fresh substream starts in the weak state
// agreeing with its first outcome; an unheld substream predicts taken;
// prediction never reorders the LRU list, and an update past capacity
// drops the least recently updated entry.
func TestSpecReferencePredictorsByHand(t *testing.T) {
	u := NewSpecUnaliased(2, 2)
	if !u.Predict(5, 1) {
		t.Fatal("unaliased: unseen substream must predict taken")
	}
	u.Update(5, 1, false) // weakly not-taken (1), trained down to 0
	if u.Predict(5, 1) || !u.Predict(5, 2) {
		t.Fatal("unaliased: substreams (5,1) and (5,2) must be separate")
	}
	u.Update(5, 1, true) // 0 -> 1, still not taken
	if u.Predict(5, 1) {
		t.Fatal("unaliased: one taken outcome must not flip a strong not-taken counter")
	}

	a := NewSpecAssocLRU(2, 0, 2)
	a.Update(1, 0, false) // [1]
	a.Update(2, 0, false) // [2 1]
	if a.Predict(1, 0) || a.Predict(2, 0) {
		t.Fatal("assoc-lru: resident not-taken entries must predict not taken")
	}
	a.Update(3, 0, false) // [3 2]: 1 was least recently updated
	if !a.Predict(1, 0) || a.Predict(2, 0) || a.Predict(3, 0) {
		t.Fatal("assoc-lru: the update past capacity must evict entry 1 only")
	}
	a.Update(2, 0, false) // [2 3]
	a.Update(4, 0, false) // [4 2]
	if !a.Predict(3, 0) || a.Predict(2, 0) {
		t.Fatal("assoc-lru: a refreshed entry must outlive an older one")
	}
}
