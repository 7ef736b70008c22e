package compaction

import (
	"slices"
	"sort"
)

// LargestMatch implements the LARGESTMATCH (LM) heuristic of Section
// 4.3.4: each iteration merges the sets with the largest pairwise
// intersection, hoping overlap makes the output small. The paper shows its
// worst case is Ω(n) — the nested-set family of the tests'
// AdversarialLargestMatch realizes the gap — so LM is included for completeness and as a
// cautionary baseline, not as a recommended strategy.
type LargestMatch struct {
	k     int
	alive []*Node
}

// NewLargestMatch returns a fresh LM chooser.
func NewLargestMatch() *LargestMatch { return &LargestMatch{} }

// Name implements Chooser.
func (l *LargestMatch) Name() string { return "LM" }

// Init implements Chooser.
func (l *LargestMatch) Init(leaves []*Node, k int) error {
	l.k = k
	l.alive = append([]*Node(nil), leaves...)
	return nil
}

// Choose implements Chooser: the pair with the largest intersection,
// greedily grown to k sets by largest intersection with the group's union.
// Ties break toward smaller node IDs for determinism.
func (l *LargestMatch) Choose() ([]*Node, error) {
	g := groupSize(l.k, len(l.alive))
	sort.Slice(l.alive, func(i, j int) bool { return l.alive[i].ID < l.alive[j].ID })
	var bestI, bestJ int
	bestScore := -1
	for i := range l.alive {
		for j := i + 1; j < len(l.alive); j++ {
			if score := l.alive[i].Set.IntersectLen(l.alive[j].Set); score > bestScore {
				bestI, bestJ, bestScore = i, j, score
			}
		}
	}
	group := []*Node{l.alive[bestI], l.alive[bestJ]}
	union := group[0].Set.Union(group[1].Set)
	for len(group) < g {
		var best *Node
		bestScore = -1
		for _, nd := range l.alive {
			if slices.Contains(group, nd) {
				continue
			}
			if score := union.IntersectLen(nd.Set); score > bestScore {
				best, bestScore = nd, score
			}
		}
		if best == nil {
			break
		}
		group = append(group, best)
		union = union.Union(best.Set)
	}
	l.remove(group)
	return group, nil
}

func (l *LargestMatch) remove(group []*Node) {
	kept := l.alive[:0]
	for _, nd := range l.alive {
		if !slices.Contains(group, nd) {
			kept = append(kept, nd)
		}
	}
	l.alive = kept
}

// Observe implements Chooser.
func (l *LargestMatch) Observe(merged *Node) {
	l.alive = append(l.alive, merged)
}
