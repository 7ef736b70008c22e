package compaction

import (
	"fmt"
	"slices"

	"repro/internal/keyset"
)

// This file holds the paper's offline theory that only the lemma tests
// use: the analytical machinery of Section 2 and Appendix A (the
// per-element cost reformulation of equation 2.2, fixed-tree merge
// schedules for the OPT-TREE-ASSIGN problem, caterpillar and complete tree
// shapes, and the η(T) path-length functional that forces complete trees in
// the NP-hardness reduction), the SUBMODULARMERGING cost, the maximum
// element frequency FreqMerge's bound is stated in, and the worst-case
// instance families that prove the bounds tight. None of it is needed to
// run compaction.

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
		if _, found := slices.BinarySearch(nd.Set.Keys(), x); found {
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

// AdversarialBalanceTree returns the Lemma 4.2 family: n−1 copies of {1}
// plus one set {1,...,n}. The left-to-right chain merge costs 4n−3
// (costactual ≈), while BALANCETREE pays at least n·(log n + 1) because the
// big set appears at every level — realizing the Ω(log n) gap. n should be
// a power of two for the cleanest effect.
func AdversarialBalanceTree(n int) *Instance {
	sets := make([]keyset.Set, n)
	for i := 0; i < n-1; i++ {
		sets[i] = keyset.New(1)
	}
	sets[n-1] = keyset.Range(1, uint64(n)+1)
	return NewInstance(sets...)
}

// DisjointSingletons returns the Lemma 4.5 family: n disjoint singletons
// {1},...,{n}. Any balanced merge (which SI and SO produce here) costs
// n·log n + n in simple cost, against the lower bound LOPT = n — showing
// the greedy analysis is tight with respect to LOPT, not that the
// heuristics are bad: the true optimum is also n·log n + n (Huffman on
// equal frequencies).
func DisjointSingletons(n int) *Instance {
	sets := make([]keyset.Set, n)
	for i := 0; i < n; i++ {
		sets[i] = keyset.New(uint64(i + 1))
	}
	return NewInstance(sets...)
}

// AdversarialLargestMatch returns the Section 4.3.4 family: nested sets
// A_i = {1, ..., 2^(i-1)} for i = 1..n. The optimal left-to-right merge
// costs 2^(n+1)−3 while LARGESTMATCH always grabs the huge set A_n first
// (it has the largest intersection with everything), paying 2^(n−1)·(n−1):
// an Ω(n) approximation gap. n is capped at 20 to keep sets in memory.
func AdversarialLargestMatch(n int) *Instance {
	if n > 20 {
		n = 20
	}
	sets := make([]keyset.Set, n)
	for i := 0; i < n; i++ {
		sets[i] = keyset.Range(1, 1+(uint64(1)<<uint(i)))
	}
	return NewInstance(sets...)
}

// HuffmanInstance returns n disjoint sets with the given sizes, on which
// BINARYMERGING coincides with Huffman coding (Section 2): SI and SO are
// provably optimal there, making it a strong oracle for tests.
func HuffmanInstance(sizes []int) *Instance {
	sets := make([]keyset.Set, len(sizes))
	var offset uint64
	for i, sz := range sizes {
		if sz < 1 {
			sz = 1
		}
		sets[i] = keyset.Range(offset, offset+uint64(sz))
		offset += uint64(sz)
	}
	return NewInstance(sets...)
}

// HuffmanCost returns the optimal simple cost for disjoint sets of the
// given sizes: total leaf mass plus the weighted internal path length of
// the optimal prefix-free code tree, computed with the classic two-smallest
// greedy.
func HuffmanCost(sizes []int) int {
	if len(sizes) == 0 {
		return 0
	}
	heap := make([]int, len(sizes))
	copy(heap, sizes)
	// Simple O(n²) selection keeps this oracle obviously correct.
	total := 0
	for _, s := range heap {
		total += s
	}
	for len(heap) > 1 {
		i1 := smallestIndex(heap, -1)
		i2 := smallestIndex(heap, i1)
		merged := heap[i1] + heap[i2]
		total += merged
		// Remove the larger index first to keep positions valid.
		if i1 < i2 {
			i1, i2 = i2, i1
		}
		heap = append(heap[:i1], heap[i1+1:]...)
		heap = append(heap[:i2], heap[i2+1:]...)
		heap = append(heap, merged)
	}
	return total
}

func smallestIndex(xs []int, skip int) int {
	best := -1
	for i, x := range xs {
		if i == skip {
			continue
		}
		if best < 0 || x < xs[best] {
			best = i
		}
	}
	return best
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

// CostSubmodular is the SUBMODULARMERGING cost: Σ over merge steps of
// f(output set). With f = cardinality this equals CostSimple minus the
// (constant) total leaf size.
func (sc *Schedule) CostSubmodular(f func(keyset.Set) float64) float64 {
	total := 0.0
	for _, st := range sc.Steps {
		total += f(st.Output.Set)
	}
	return total
}
