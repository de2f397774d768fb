//go:build race

package harness

// raceEnabled reports whether the race detector is on; it adds
// allocations of its own, so allocation pins are only checked without it.
const raceEnabled = true
