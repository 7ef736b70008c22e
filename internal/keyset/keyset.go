// Package keyset implements the set algebra underlying the paper's model of
// an sstable: a set of fixed-size keys, where the size of an sstable is
// proportional to the number of distinct keys it contains (Section 2 of
// Ghosh et al., "Fast Compaction Algorithms for NoSQL Databases",
// ICDCS 2015).
//
// A Set is stored as a strictly increasing slice of uint64 keys. Union and
// intersection run in linear time in the sizes of the operands, which keeps
// simulated merges CPU-faithful to real merge-sort based compaction: merging
// two sstables of sizes n and m costs O(n+m) work here exactly as it does on
// disk.
package keyset

import (
	"fmt"
	"sort"
	"strings"
)

// Set is an immutable, sorted set of uint64 keys. The zero value is the
// empty set and is ready to use. Functions in this package never mutate
// their operands; they return freshly allocated results.
type Set struct {
	keys []uint64
}

// New builds a Set from keys, which may be unsorted and contain duplicates.
func New(keys ...uint64) Set {
	if len(keys) == 0 {
		return Set{}
	}
	sorted := make([]uint64, len(keys))
	copy(sorted, keys)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := sorted[:1]
	for _, k := range sorted[1:] {
		if k != out[len(out)-1] {
			out = append(out, k)
		}
	}
	return Set{keys: out}
}

// Range builds the set {lo, lo+1, ..., hi-1}. It returns the empty set when
// hi <= lo.
func Range(lo, hi uint64) Set {
	if hi <= lo {
		return Set{}
	}
	keys := make([]uint64, 0, hi-lo)
	for k := lo; k < hi; k++ {
		keys = append(keys, k)
	}
	return Set{keys: keys}
}

// Len reports the cardinality of the set. In the paper's model this is the
// size of the sstable.
func (s Set) Len() int { return len(s.keys) }

// Empty reports whether the set has no keys.
func (s Set) Empty() bool { return len(s.keys) == 0 }

// Keys returns the underlying sorted key slice. Callers must not modify it.
func (s Set) Keys() []uint64 { return s.keys }

// Union returns the set union s ∪ t. This is the paper's merge operation on
// sstables: one entry per key present in either input.
func (s Set) Union(t Set) Set {
	if s.Empty() {
		return t
	}
	if t.Empty() {
		return s
	}
	out := make([]uint64, 0, len(s.keys)+len(t.keys))
	i, j := 0, 0
	for i < len(s.keys) && j < len(t.keys) {
		switch {
		case s.keys[i] < t.keys[j]:
			out = append(out, s.keys[i])
			i++
		case s.keys[i] > t.keys[j]:
			out = append(out, t.keys[j])
			j++
		default:
			out = append(out, s.keys[i])
			i++
			j++
		}
	}
	out = append(out, s.keys[i:]...)
	out = append(out, t.keys[j:]...)
	return Set{keys: out}
}

// UnionAll returns the union of all sets. It merges smallest-first to bound
// total work, mirroring a k-way merge.
func UnionAll(sets ...Set) Set {
	switch len(sets) {
	case 0:
		return Set{}
	case 1:
		return sets[0]
	}
	acc := sets[0]
	for _, s := range sets[1:] {
		acc = acc.Union(s)
	}
	return acc
}

// IntersectLen returns |s ∩ t| without allocating the intersection. The
// LARGESTMATCH heuristic calls this for every candidate pair, so avoiding
// the allocation matters.
func (s Set) IntersectLen(t Set) int {
	n := 0
	i, j := 0, 0
	for i < len(s.keys) && j < len(t.keys) {
		switch {
		case s.keys[i] < t.keys[j]:
			i++
		case s.keys[i] > t.keys[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// UnionLen returns |s ∪ t| without allocating the union. SMALLESTOUTPUT
// with exact cardinalities uses this to rank candidate pairs.
func (s Set) UnionLen(t Set) int {
	return len(s.keys) + len(t.keys) - s.IntersectLen(t)
}

// Equal reports whether s and t contain exactly the same keys.
func (s Set) Equal(t Set) bool {
	if len(s.keys) != len(t.keys) {
		return false
	}
	for i, k := range s.keys {
		if t.keys[i] != k {
			return false
		}
	}
	return true
}

// String formats the set like {1, 2, 3}; large sets are abbreviated.
func (s Set) String() string {
	const maxShown = 16
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range s.keys {
		if i == maxShown {
			fmt.Fprintf(&b, ", … %d more", len(s.keys)-maxShown)
			break
		}
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", k)
	}
	b.WriteByte('}')
	return b.String()
}
