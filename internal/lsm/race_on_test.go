//go:build race

package lsm

// raceEnabled: the race detector makes sync.Pool drop a quarter of what it
// is handed, so allocation counts that rely on recycled scans do not hold.
const raceEnabled = true
