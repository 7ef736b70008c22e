package compaction

import (
	"fmt"

	"repro/internal/keyset"
)

// Node is one vertex of a merge tree. Leaves correspond to input tables;
// internal nodes are merge outputs. The root holds the ground set.
type Node struct {
	// ID is unique within a Schedule: leaves take 0..n-1 (matching table
	// IDs), merge outputs continue from n in merge order.
	ID int
	// Set is the node's label A_ν: the keys of the (merged) sstable. Empty
	// on a statistics-only node.
	Set keyset.Set
	// Live is set on the nodes of a schedule planned from live table
	// statistics (Plan, PickLive): a leaf's persisted statistics, or a merge
	// output's estimated ones. Nil under the exact model.
	Live *LiveTable
	// Children are the merge inputs; nil for leaves. Length is between 2
	// and the schedule's K for internal nodes.
	Children []*Node
	// TableID is the input table index for leaves, -1 for internal nodes.
	TableID int
	// Level is the BALANCETREE level annotation (leaves start at 1). Other
	// strategies leave it at the default computed height.
	Level int
}

// Len is the node's cardinality |A_ν|, the quantity every chooser ranks by:
// exact under the model, the entry count or clamped sketch estimate of a
// statistics-only node.
func (nd *Node) Len() int {
	if nd.Live != nil {
		return nd.Live.Entries
	}
	return nd.Set.Len()
}

// IsLeaf reports whether the node is an input table.
func (nd *Node) IsLeaf() bool { return len(nd.Children) == 0 }

// Step records one merge operation: the inputs consumed and the node
// produced.
type Step struct {
	Inputs []*Node
	Output *Node
}

// InputSize returns the total cardinality of the step's inputs — the data
// read from disk by this merge.
func (s Step) InputSize() int {
	total := 0
	for _, in := range s.Inputs {
		total += in.Len()
	}
	return total
}

// Schedule is a complete merge schedule: an ordered sequence of merges that
// reduces the instance to a single set, together with the induced merge
// tree.
type Schedule struct {
	// Strategy names the chooser that produced the schedule.
	Strategy string
	// K is the maximum merge fan-in the schedule was produced under.
	K int
	// Root is the final node, whose set is the ground set U.
	Root *Node
	// Steps lists merges in execution order; len(Steps) ≥ 1 except for the
	// degenerate single-table instance, which needs no merges.
	Steps []Step
	// Leaves are the input nodes, indexed by table ID.
	Leaves []*Node
}

// Nodes returns all nodes of the merge tree: leaves then merge outputs in
// merge order.
func (sc *Schedule) Nodes() []*Node {
	out := make([]*Node, 0, len(sc.Leaves)+len(sc.Steps))
	out = append(out, sc.Leaves...)
	for _, st := range sc.Steps {
		out = append(out, st.Output)
	}
	return out
}

// CostSimple is the simplified cost of equation 2.1: Σ_{ν∈T} |A_ν| over
// every node of the merge tree, leaves and root included. All the paper's
// approximation guarantees are stated against this cost.
func (sc *Schedule) CostSimple() int {
	total := 0
	for _, nd := range sc.Nodes() {
		total += nd.Len()
	}
	return total
}

// CostActual is the disk I/O cost of Section 2: each merge reads its
// inputs and writes its output, so internal nodes are counted twice (once
// as output, once as later input), while leaves and the root are counted
// once. Equivalently: Σ over steps of (inputs + output).
func (sc *Schedule) CostActual() int {
	total := 0
	for _, st := range sc.Steps {
		total += st.InputSize() + st.Output.Len()
	}
	return total
}

// Height returns the height of the merge tree (edges on the longest
// root-leaf path).
func (sc *Schedule) Height() int {
	var walk func(nd *Node) int
	walk = func(nd *Node) int {
		if nd.IsLeaf() {
			return 0
		}
		max := 0
		for _, c := range nd.Children {
			if h := walk(c); h > max {
				max = h
			}
		}
		return max + 1
	}
	return walk(sc.Root)
}

// Test support: Validate checks structural invariants: every leaf is
// consumed exactly once, every step's output is the union of its inputs,
// fan-in respects K, and the root's set equals the union of all leaves.
func (sc *Schedule) Validate() error {
	if sc.Root == nil {
		return fmt.Errorf("compaction: schedule has no root")
	}
	if sc.K < 2 {
		return fmt.Errorf("compaction: schedule K = %d", sc.K)
	}
	consumed := make(map[int]int) // node ID -> times used as input
	produced := map[int]bool{}
	for i, st := range sc.Steps {
		if len(st.Inputs) < 2 || len(st.Inputs) > sc.K {
			return fmt.Errorf("compaction: step %d merges %d sets (k=%d)", i, len(st.Inputs), sc.K)
		}
		union := keyset.Set{}
		for _, in := range st.Inputs {
			if !in.IsLeaf() && !produced[in.ID] {
				return fmt.Errorf("compaction: step %d consumes node %d before it is produced", i, in.ID)
			}
			consumed[in.ID]++
			union = union.Union(in.Set)
		}
		if !union.Equal(st.Output.Set) {
			return fmt.Errorf("compaction: step %d output is not the union of its inputs", i)
		}
		produced[st.Output.ID] = true
	}
	for _, leaf := range sc.Leaves {
		if len(sc.Leaves) > 1 && consumed[leaf.ID] != 1 {
			return fmt.Errorf("compaction: leaf %d consumed %d times", leaf.TableID, consumed[leaf.ID])
		}
	}
	for _, st := range sc.Steps[:max(0, len(sc.Steps)-1)] {
		if consumed[st.Output.ID] != 1 {
			return fmt.Errorf("compaction: intermediate node %d consumed %d times", st.Output.ID, consumed[st.Output.ID])
		}
	}
	sets := make([]keyset.Set, len(sc.Leaves))
	for i, leaf := range sc.Leaves {
		sets[i] = leaf.Set
	}
	if !sc.Root.Set.Equal(keyset.UnionAll(sets...)) {
		return fmt.Errorf("compaction: root set is not the universe")
	}
	return nil
}
