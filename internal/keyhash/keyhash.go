// Package keyhash is the engine's one hash of key bytes. A table writer
// hashes each entry once and a point read hashes its key once; the Bloom
// filter derives all its probe positions from the finalised pair (package
// bloom applies splitmix64's finaliser to each half), the HyperLogLog sketch
// observes H1, and the abstract compaction model's uint64 key universe is
// H1 — so a persisted sketch and a model-built one over the same keys are
// register-identical. Placement, H1 finished by Mix64, places keys on the
// store's shards and the cluster's ring.
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

// Placement is the hash that places a key on a partition: the store's
// shards and the cluster's ring both take it, so a key's placement is
// computed the same way whether the partitions live in one process or
// many. It is H1 finished by Mix64, which spreads similar keys (consecutive
// counters, shared prefixes) over all 64 bits. A sharded directory's
// layout depends on it, so it must never change.
func Placement(key []byte) uint64 { return Mix64(Of(key).H1) }

// Mix64 is a 64-bit finalizer: it spreads the differences between similar
// inputs over all bits.
func Mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return h
}
