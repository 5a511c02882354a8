//go:build race

package trace

// raceEnabled reports the race detector is instrumenting this build,
// under which sync.Pool drops items at random, so pooled-scratch
// allocation gates do not hold.
const raceEnabled = true
