package compaction

import (
	"fmt"

	"repro/internal/keyset"
)

// FreqMerge implements Algorithm 2, the f-approximation for BINARYMERGING
// (Section 4.4), generalized to k-way merging. It disjointifies the
// instance — conceptually replacing each element x of A_i by the tuple
// (x, i) — runs the SMALLESTINPUT greedy on the disjoint copies (where SI
// is Huffman-optimal, Lemma 4.3), and then merges the real sets along the
// resulting tree and leaf assignment. The result is within a factor
// f of optimal, f being the most input sets any one element appears in.
//
// Because the disjoint copies only matter through their cardinalities, the
// implementation materializes each A'_i as a fresh block of |A_i| unique
// keys rather than real tuples.
func FreqMerge(inst *Instance, k int) (*Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	// Build the disjoint shadow instance A'_1, ..., A'_n.
	shadow := make([]keyset.Set, inst.N())
	var offset uint64
	for i, t := range inst.Tables() {
		n := uint64(t.Set.Len())
		shadow[i] = keyset.Range(offset, offset+n)
		offset += n
	}
	guide, err := Run(NewInstance(shadow...), k, NewSmallestInput())
	if err != nil {
		return nil, fmt.Errorf("compaction: freq guide: %w", err)
	}
	sc, err := replaySchedule(guide, inst)
	if err != nil {
		return nil, err
	}
	sc.Strategy = "FREQ"
	return sc, nil
}

// replaySchedule re-executes the merge tree of guide on the tables of
// inst: leaf i of the guide is assigned table i, and every step unions the
// corresponding real sets. The step order and tree shape are preserved.
func replaySchedule(guide *Schedule, inst *Instance) (*Schedule, error) {
	if len(guide.Leaves) != inst.N() {
		return nil, fmt.Errorf("compaction: replay: %d leaves vs %d tables", len(guide.Leaves), inst.N())
	}
	mapped := make(map[int]*Node, len(guide.Leaves)+len(guide.Steps))
	sc := &Schedule{Strategy: guide.Strategy, K: guide.K, Leaves: make([]*Node, inst.N())}
	for _, gl := range guide.Leaves {
		leaf := &Node{ID: gl.TableID, Set: inst.Table(gl.TableID).Set, TableID: gl.TableID, Level: 1}
		sc.Leaves[gl.TableID] = leaf
		mapped[gl.ID] = leaf
	}
	for _, gs := range guide.Steps {
		inputs := make([]*Node, len(gs.Inputs))
		sets := make([]keyset.Set, len(gs.Inputs))
		maxLevel := 0
		for i, gin := range gs.Inputs {
			nd, ok := mapped[gin.ID]
			if !ok {
				return nil, fmt.Errorf("compaction: replay: unknown input node %d", gin.ID)
			}
			inputs[i] = nd
			sets[i] = nd.Set
			if nd.Level > maxLevel {
				maxLevel = nd.Level
			}
		}
		out := &Node{
			ID:       gs.Output.ID,
			Set:      keyset.UnionAll(sets...),
			Children: inputs,
			TableID:  -1,
			Level:    maxLevel + 1,
		}
		mapped[gs.Output.ID] = out
		sc.Steps = append(sc.Steps, Step{Inputs: inputs, Output: out})
	}
	if len(sc.Steps) > 0 {
		sc.Root = sc.Steps[len(sc.Steps)-1].Output
	} else {
		sc.Root = sc.Leaves[0]
	}
	return sc, nil
}
