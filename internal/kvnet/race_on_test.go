//go:build race

package kvnet

// raceEnabled: the race detector makes sync.Pool drop a quarter of what it
// is handed, so allocation counts that rely on pooled objects do not hold.
const raceEnabled = true
