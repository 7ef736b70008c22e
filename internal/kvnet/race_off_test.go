//go:build !race

package kvnet

const raceEnabled = false
