//go:build race

package cfg

// raceEnabled reports the race detector is instrumenting this build,
// under which sync.Pool drops items at random, so the pooled-workspace
// allocation gates do not hold.
const raceEnabled = true
