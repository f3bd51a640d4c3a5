//go:build race

package lynx_test

// raceEnabled reports whether the race detector is on; its
// instrumentation changes allocation counts.
const raceEnabled = true
