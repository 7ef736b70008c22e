package compaction

import (
	"fmt"

	"repro/internal/keyset"
)

// Chooser implements the CHOOSETWOSETS subroutine of the paper's generic
// greedy algorithm (Algorithm 1), generalized to choose up to k sets.
// A Chooser is stateful and single-use: construct a fresh one per Run.
type Chooser interface {
	// Name identifies the strategy, e.g. "SI" or "BT(I)".
	Name() string
	// Init is called once with the leaf nodes before the first Choose.
	Init(leaves []*Node, k int) error
	// Choose returns the nodes to merge next, between 2 and min(k, live)
	// of the nodes currently alive. It is never called with fewer than 2
	// live nodes.
	Choose() ([]*Node, error)
	// Observe delivers the node produced by the merge of the last Choose
	// result, so the chooser can update its internal collection.
	Observe(merged *Node)
}

// Run executes the generic greedy loop: starting from the instance's
// tables, it repeatedly asks chooser for a group of at most k live sets,
// merges them, and feeds the result back, until a single set remains
// (Algorithm 1). It returns the complete merge schedule.
func Run(inst *Instance, k int, chooser Chooser) (*Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	leaves := make([]*Node, inst.N())
	for i, t := range inst.Tables() {
		leaves[i] = &Node{ID: i, Set: t.Set, TableID: i, Level: 1}
	}
	return greedy(leaves, k, chooser, len(leaves), func(merged *Node) {
		sets := make([]keyset.Set, len(merged.Children))
		for i, nd := range merged.Children {
			sets[i] = nd.Set
		}
		merged.Set = keyset.UnionAll(sets...)
	})
}

// greedy is Algorithm 1 over any node labelling, for at most steps merges:
// label fills in what the merge of merged.Children holds — the exact union
// under Run, estimated statistics under Plan — before the chooser observes
// the new node. The root is the last merge's output, which is the one node
// left once the loop has run to the end.
func greedy(leaves []*Node, k int, chooser Chooser, steps int, label func(merged *Node)) (*Schedule, error) {
	if k < 2 {
		return nil, fmt.Errorf("compaction: k = %d, need k >= 2", k)
	}
	sc := &Schedule{Strategy: chooser.Name(), K: k, Leaves: leaves}
	if len(leaves) == 1 {
		sc.Root = leaves[0]
		return sc, nil
	}

	if err := chooser.Init(leaves, k); err != nil {
		return nil, err
	}
	live := len(leaves)
	nextID := len(leaves)
	alive := make(map[*Node]bool, live)
	for _, leaf := range leaves {
		alive[leaf] = true
	}

	for live > 1 && len(sc.Steps) < steps {
		group, err := chooser.Choose()
		if err != nil {
			return nil, fmt.Errorf("compaction: %s: %w", chooser.Name(), err)
		}
		if len(group) < 2 || len(group) > k || len(group) > live {
			return nil, fmt.Errorf("compaction: %s chose %d sets (k=%d, live=%d)", chooser.Name(), len(group), k, live)
		}
		seen := make(map[*Node]bool, len(group))
		maxLevel := 0
		for _, nd := range group {
			if !alive[nd] || seen[nd] {
				return nil, fmt.Errorf("compaction: %s chose a dead or duplicate node", chooser.Name())
			}
			seen[nd] = true
			if nd.Level > maxLevel {
				maxLevel = nd.Level
			}
		}
		merged := &Node{ID: nextID, Children: group, TableID: -1, Level: maxLevel + 1}
		label(merged)
		nextID++
		for _, nd := range group {
			delete(alive, nd)
		}
		alive[merged] = true
		live -= len(group) - 1
		sc.Steps = append(sc.Steps, Step{Inputs: group, Output: merged})
		sc.Root = merged
		chooser.Observe(merged)
	}
	return sc, nil
}

// groupSize returns how many sets a chooser should merge this iteration:
// the paper's strategies always take k at a time, bounded by how many sets
// remain.
func groupSize(k, live int) int {
	if live < k {
		return live
	}
	return k
}
