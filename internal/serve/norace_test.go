//go:build !race

package serve

// raceEnabled reports a race-detector build, whose instrumentation and
// sync.Pool drops add allocations that allocation bounds do not count on.
const raceEnabled = false
