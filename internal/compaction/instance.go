// Package compaction implements the paper's primary contribution: major
// compaction as an optimization problem, and the greedy merge-scheduling
// algorithms that approximate it (Ghosh, Gupta, Gupta, Kumar — "Fast
// Compaction Algorithms for NoSQL Databases", ICDCS 2015).
//
// An Instance holds the n input sstables, modeled as sets of keys
// (BINARYMERGING, Section 2). A Chooser implements the CHOOSETWOSETS
// subroutine of the generic greedy algorithm (Algorithm 1), generalized to
// k-way merging; Run drives it to produce a Schedule — the full merge tree.
// Cost functions on schedules implement both the simplified cost of
// equation 2.1 (every node counted once) and costactual (internal nodes
// counted twice, as they are both written and re-read), as well as the
// SUBMODULARMERGING generalization.
//
// Provided choosers: SMALLESTINPUT, SMALLESTOUTPUT (exact and
// HyperLogLog-estimated), BALANCETREE with either inner order,
// LARGESTMATCH, and RANDOM. FreqMerge implements the f-approximation of
// Algorithm 2, and OptimalBinary/OptimalKWay compute exact optima for small
// instances by dynamic programming over subsets — something the paper could
// not compare against (it used the Σ|Ai| lower bound instead).
//
// The engine does not hand this package key sets. Plan drives the same
// choosers over LiveTables — the statistics an sstable persists: exact entry
// count, key bounds, HyperLogLog key sketch — and PickLive is that plan's
// first choice; planning reads no key data (Section 5.1: "computing the
// exact output size without merging is as expensive as merging").
// SO(exact) and LM rank by exact set operations, so only Run plans with them:
// NewLiveChooser, the engine's one resolver of strategy names, refuses them.
// A planned schedule's costs are estimates — the engine reports the costs
// its merges actually counted.
package compaction

import (
	"fmt"

	"repro/internal/keyset"
)

// Table is one input sstable in the abstract model: an identifier plus the
// set of keys it contains.
type Table struct {
	// ID is the table's index within its Instance.
	ID int
	// Set holds the table's keys; its cardinality is the table's size.
	Set keyset.Set
}

// Instance is a BINARYMERGING / K-WAYMERGING problem instance: the
// collection A_1, ..., A_n of input sets.
type Instance struct {
	tables []Table
}

// NewInstance builds an instance from the given sets, in order.
func NewInstance(sets ...keyset.Set) *Instance {
	in := &Instance{tables: make([]Table, len(sets))}
	for i, s := range sets {
		in.tables[i] = Table{ID: i, Set: s}
	}
	return in
}

// N returns the number of input tables.
func (in *Instance) N() int { return len(in.tables) }

// Tables returns the input tables. Callers must not modify the slice.
func (in *Instance) Tables() []Table { return in.tables }

// Table returns the i-th input table.
func (in *Instance) Table(i int) Table { return in.tables[i] }

// LowerBound returns LOPT = Σ|A_i|, the lower bound on the optimal
// simplified cost used throughout Section 4: every leaf appears in the
// merge tree, so OPT ≥ Σ|A_i|.
func (in *Instance) LowerBound() int {
	total := 0
	for _, t := range in.tables {
		total += t.Set.Len()
	}
	return total
}

// Universe returns the union of all input sets — the ground set U, which
// is also the set at the root of every valid merge tree.
func (in *Instance) Universe() keyset.Set {
	sets := make([]keyset.Set, len(in.tables))
	for i, t := range in.tables {
		sets[i] = t.Set
	}
	return keyset.UnionAll(sets...)
}

// MaxFrequency returns f = max_x |{i : x ∈ A_i}|, the maximum number of
// input sets any element appears in. FreqMerge is an f-approximation
// (Section 4.4).
func (in *Instance) MaxFrequency() int {
	freq := make(map[uint64]int)
	for _, t := range in.tables {
		for _, k := range t.Set.Keys() {
			freq[k]++
		}
	}
	max := 0
	for _, c := range freq {
		if c > max {
			max = c
		}
	}
	return max
}

// Validate checks that the instance is a well-formed input for Run: at
// least one table, none empty. Empty sets are rejected because the paper's
// model has sstables flushed from non-empty memtables, and zero-size sets
// break strategies that rank by cardinality.
func (in *Instance) Validate() error {
	if len(in.tables) == 0 {
		return fmt.Errorf("compaction: instance has no tables")
	}
	for i, t := range in.tables {
		if t.Set.Empty() {
			return fmt.Errorf("compaction: table %d is empty", i)
		}
	}
	return nil
}
