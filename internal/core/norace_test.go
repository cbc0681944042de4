//go:build !race

package core

// raceEnabled reports whether the race detector is on. Under it sync.Pool
// drops items at random, so allocation counts are not deterministic.
const raceEnabled = false
