// Package keyhash is the engine's one hash of key bytes. A table writer
// hashes each entry once and a point read hashes its key once; the Bloom
// filter derives all its probe positions from the finalised pair (package
// bloom applies splitmix64's finaliser to each half), the HyperLogLog sketch
// observes H1, and the abstract compaction model's uint64 key universe is
// H1 — so a persisted sketch and a model-built one over the same keys are
// register-identical.
package keyhash

// Hash holds two 64-bit FNV-1a values of one key: H1 from the standard
// offset basis, H2 from the basis XORed with the golden-ratio constant. The
// values are part of the sstable format (filter bit positions derive from
// their finalised pair, sketch registers from H1) and must never change.
type Hash struct{ H1, H2 uint64 }

// Of hashes key in a single pass over its bytes.
func Of(key []byte) Hash {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h1, h2 := uint64(offset), uint64(offset^0x9e3779b97f4a7c15)
	for _, b := range key {
		h1 = (h1 ^ uint64(b)) * prime
		h2 = (h2 ^ uint64(b)) * prime
	}
	return Hash{h1, h2}
}
