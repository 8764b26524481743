//go:build race

package cluster

// raceEnabled reports whether the race detector is on. Under it sync.Pool
// drops a random share of Puts, so allocation pins on pooled paths do not
// hold.
const raceEnabled = true
