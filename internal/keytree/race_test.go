//go:build race

package keytree

// raceEnabled reports whether the race detector is on: it makes sync.Pool
// drop pooled objects at random, so pooled buffers show up as allocations.
const raceEnabled = true
