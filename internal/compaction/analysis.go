package compaction

import (
	"fmt"

	"repro/internal/keyset"
)

// This file implements the analytical machinery of Section 2 and Appendix
// A: the per-element cost reformulation (equation 2.2), fixed-tree merge
// schedules (the OPT-TREE-ASSIGN problem), caterpillar and complete tree
// shapes, and the η(T) path-length functional used to force complete trees
// in the NP-hardness reduction. These are not needed to *run* compaction —
// they exist to verify the paper's identities and constructions
// empirically, and to support the hardness-themed tests and examples.

// CostByElement computes the schedule cost via the reformulation of
// equation 2.2: cost(T, π) = Σ_{x∈U} (|T(x)| + 1), where T(x) is the
// minimal subtree spanning the nodes whose label sets contain x and
// |T(x)| counts its edges. It must always equal CostSimple; tests assert
// the identity on every strategy's output.
func (sc *Schedule) CostByElement() int {
	// |T(x)|+1 equals the number of nodes of T whose label contains x:
	// the nodes containing x always form a connected subtree (labels are
	// unions of descendant leaves), so edges = nodes − 1.
	total := 0
	for _, nd := range sc.Nodes() {
		total += nd.Len()
	}
	return total
}

// ElementSpan returns |T(x)| + 1 for one element: the number of schedule
// nodes whose set contains x. It is the element's individual contribution
// to the cost under equation 2.2.
func (sc *Schedule) ElementSpan(x uint64) int {
	n := 0
	for _, nd := range sc.Nodes() {
		if nd.Set.Contains(x) {
			n++
		}
	}
	return n
}

// TreeShape describes an unlabeled full binary tree for the OPT-TREE-
// ASSIGN problem (Appendix A.2): nil children mean a leaf.
type TreeShape struct {
	Left, Right *TreeShape
}

// LeafCount returns the number of leaves of the shape.
func (t *TreeShape) LeafCount() int {
	if t == nil {
		return 0
	}
	if t.Left == nil && t.Right == nil {
		return 1
	}
	return t.Left.LeafCount() + t.Right.LeafCount()
}

// Eta computes η(T): the sum over all leaves of the number of nodes on the
// root-to-leaf path (Appendix A.3). Lemma A.2 proves η(T) ≥ n·log(2n) with
// equality only for the perfect binary tree.
func (t *TreeShape) Eta() int {
	var walk func(nd *TreeShape, depth int) int
	walk = func(nd *TreeShape, depth int) int {
		if nd.Left == nil && nd.Right == nil {
			return depth + 1
		}
		return walk(nd.Left, depth+1) + walk(nd.Right, depth+1)
	}
	return walk(t, 0)
}

// CompleteTree builds the perfectly balanced shape with n = 2^h leaves.
// It panics if n is not a positive power of two; callers construct these
// from constants.
func CompleteTree(n int) *TreeShape {
	if n < 1 || n&(n-1) != 0 {
		panic(fmt.Sprintf("compaction: CompleteTree needs a power of two, got %d", n))
	}
	if n == 1 {
		return &TreeShape{}
	}
	return &TreeShape{Left: CompleteTree(n / 2), Right: CompleteTree(n / 2)}
}

// CaterpillarTree builds the caterpillar shape Tn of Section 3 (Figure 3):
// a left spine of internal nodes with leaves hanging right, height n−1.
func CaterpillarTree(n int) *TreeShape {
	if n < 1 {
		panic("compaction: CaterpillarTree needs n >= 1")
	}
	if n == 1 {
		return &TreeShape{}
	}
	t := &TreeShape{Left: &TreeShape{}, Right: &TreeShape{}}
	for i := 2; i < n; i++ {
		t = &TreeShape{Left: t, Right: &TreeShape{}}
	}
	return t
}

// AssignTree builds the merge schedule that results from merging the
// instance's tables along the fixed shape, with perm assigning table
// perm[i] to the i-th leaf in left-to-right order. This is one candidate
// solution of OPT-TREE-ASSIGN(shape, A_1..A_n). Merges are emitted in
// post-order.
func AssignTree(inst *Instance, shape *TreeShape, perm []int) (*Schedule, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	n := inst.N()
	if shape.LeafCount() != n {
		return nil, fmt.Errorf("compaction: shape has %d leaves for %d tables", shape.LeafCount(), n)
	}
	if len(perm) != n {
		return nil, fmt.Errorf("compaction: permutation length %d for %d tables", len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return nil, fmt.Errorf("compaction: invalid permutation %v", perm)
		}
		seen[p] = true
	}

	sc := &Schedule{Strategy: "FIXED-TREE", K: 2, Leaves: make([]*Node, n)}
	for i, t := range inst.Tables() {
		sc.Leaves[i] = &Node{ID: i, Set: t.Set, TableID: i, Level: 1}
	}
	nextLeaf := 0
	nextID := n
	var build func(s *TreeShape) *Node
	build = func(s *TreeShape) *Node {
		if s.Left == nil && s.Right == nil {
			leaf := sc.Leaves[perm[nextLeaf]]
			nextLeaf++
			return leaf
		}
		l := build(s.Left)
		r := build(s.Right)
		level := l.Level
		if r.Level > level {
			level = r.Level
		}
		out := &Node{
			ID:       nextID,
			Set:      l.Set.Union(r.Set),
			Children: []*Node{l, r},
			TableID:  -1,
			Level:    level + 1,
		}
		nextID++
		sc.Steps = append(sc.Steps, Step{Inputs: []*Node{l, r}, Output: out})
		return out
	}
	sc.Root = build(shape)
	return sc, nil
}

// OptTreeAssign solves the OPT-TREE-ASSIGN problem exactly by enumerating
// all n! leaf assignments — the problem is NP-hard (Lemma A.1), so brute
// force is the honest exact method. n is capped at 9 (362,880
// permutations).
func OptTreeAssign(inst *Instance, shape *TreeShape) (*Schedule, error) {
	const maxN = 9
	n := inst.N()
	if n > maxN {
		return nil, fmt.Errorf("compaction: OptTreeAssign limited to %d tables, got %d", maxN, n)
	}
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var best *Schedule
	bestCost := -1
	for {
		sc, err := AssignTree(inst, shape, perm)
		if err != nil {
			return nil, err
		}
		if cost := sc.CostSimple(); bestCost < 0 || cost < bestCost {
			best, bestCost = sc, cost
		}
		if !nextPermutation(perm) {
			break
		}
	}
	return best, nil
}

// nextPermutation advances perm to the next lexicographic permutation,
// returning false after the last one.
func nextPermutation(perm []int) bool {
	i := len(perm) - 2
	for i >= 0 && perm[i] >= perm[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := len(perm) - 1
	for perm[j] <= perm[i] {
		j--
	}
	perm[i], perm[j] = perm[j], perm[i]
	// Reverse the suffix.
	for l, r := i+1, len(perm)-1; l < r; l, r = l+1, r-1 {
		perm[l], perm[r] = perm[r], perm[l]
	}
	return true
}

// PadWithDisjoint returns the Lemma A.5 forcing construction: each A_i is
// extended with a fresh disjoint block B_i of `size` keys. With
// size > 2mn (m = |∪A_i|), the optimal merge tree of the padded instance
// is forced to be the complete binary tree, and
// opta(T̄, A) = opts(A∪B) − S·n·log(2n).
func PadWithDisjoint(inst *Instance, size int) *Instance {
	// Fresh keys start far above any existing key to guarantee
	// disjointness without scanning.
	var maxKey uint64
	for _, t := range inst.Tables() {
		keys := t.Set.Keys()
		if len(keys) > 0 && keys[len(keys)-1] > maxKey {
			maxKey = keys[len(keys)-1]
		}
	}
	next := maxKey + 1
	padded := make([]Table, inst.N())
	for i, t := range inst.Tables() {
		block := keyset.Range(next, next+uint64(size))
		next += uint64(size)
		padded[i] = Table{ID: i, Set: t.Set.Union(block)}
	}
	return &Instance{tables: padded}
}

// MinPadSize returns the Lemma A.5 threshold 2mn+1 for the instance.
func MinPadSize(inst *Instance) int {
	return 2*inst.Universe().Len()*inst.N() + 1
}
