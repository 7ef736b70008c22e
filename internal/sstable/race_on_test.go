//go:build race

package sstable

// raceEnabled: the race detector makes sync.Pool drop a quarter of what it
// is handed, so allocation counts that rely on recycled iterators do not
// hold.
const raceEnabled = true
