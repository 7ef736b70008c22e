package compaction

import (
	"container/heap"
	"fmt"

	"repro/internal/hll"
)

// UnionEstimator abstracts how SMALLESTOUTPUT ranks candidate merges: by
// exact union cardinality, or by a HyperLogLog estimate (the practical
// implementation of Section 5.1, since computing the exact output size
// without merging is as expensive as merging).
type UnionEstimator interface {
	// EstimatorName tags the estimator for strategy names ("exact"/"hll").
	EstimatorName() string
	// Prepare is called once per node (leaves and merge outputs) before
	// that node participates in estimates.
	Prepare(nd *Node) error
	// PairEstimate estimates |a.Set ∪ b.Set|.
	PairEstimate(a, b *Node) (float64, error)
	// GroupEstimate estimates the union cardinality of group ∪ {extra}.
	GroupEstimate(group []*Node, extra *Node) (float64, error)
}

// ExactEstimator ranks merges by true union cardinality, computed with a
// linear scan of both sorted key slices. This is the "exact cardinality
// sstable merging scheme" the paper compares its HLL variant against.
type ExactEstimator struct{}

// EstimatorName implements UnionEstimator.
func (ExactEstimator) EstimatorName() string { return "exact" }

// Prepare implements UnionEstimator.
func (ExactEstimator) Prepare(*Node) error { return nil }

// PairEstimate implements UnionEstimator.
func (ExactEstimator) PairEstimate(a, b *Node) (float64, error) {
	return float64(a.Set.UnionLen(b.Set)), nil
}

// GroupEstimate implements UnionEstimator.
func (ExactEstimator) GroupEstimate(group []*Node, extra *Node) (float64, error) {
	u := extra.Set
	for _, nd := range group {
		u = u.Union(nd.Set)
	}
	return float64(u.Len()), nil
}

// HLLEstimator ranks merges by HyperLogLog estimates. Each node carries a
// sketch: leaves are sketched from their keys — or, planned from live
// statistics, bring the sketch their table persisted — and merge outputs
// merge their children's sketches (sketch union is exact), so no key data
// is touched when estimating: the point of the paper's practical SO
// implementation. A node without a usable sketch (a table written before
// sketches were persisted, or at another precision) is ranked as if
// disjoint from everything: the sum of the cardinalities.
type HLLEstimator struct {
	precision uint8
	sketches  map[*Node]*hll.Sketch
}

// NewHLLEstimator creates an estimator with 2^precision registers per
// sketch. Precision 12 gives ≈1.6% standard error.
func NewHLLEstimator(precision uint8) *HLLEstimator {
	return &HLLEstimator{precision: precision, sketches: make(map[*Node]*hll.Sketch)}
}

// EstimatorName implements UnionEstimator.
func (e *HLLEstimator) EstimatorName() string { return "hll" }

// Prepare implements UnionEstimator.
func (e *HLLEstimator) Prepare(nd *Node) error {
	if _, ok := e.sketches[nd]; ok {
		return nil
	}
	switch {
	case nd.Live != nil:
		e.sketches[nd] = nd.Live.Sketch
	case nd.IsLeaf():
		s, err := hll.SketchOfUint64s(e.precision, nd.Set.Keys())
		if err != nil {
			return err
		}
		e.sketches[nd] = s
	default:
		// Merge the children's sketches: O(registers), independent of set
		// size.
		sketches := make([]*hll.Sketch, len(nd.Children))
		for i, c := range nd.Children {
			sketches[i] = e.sketches[c]
		}
		e.sketches[nd] = hll.Union(sketches...)
	}
	return nil
}

// PairEstimate implements UnionEstimator.
func (e *HLLEstimator) PairEstimate(a, b *Node) (float64, error) {
	return e.GroupEstimate([]*Node{a}, b)
}

// GroupEstimate implements UnionEstimator.
func (e *HLLEstimator) GroupEstimate(group []*Node, extra *Node) (float64, error) {
	sketches := make([]*hll.Sketch, 0, len(group)+1)
	sum := extra.Len()
	sketches = append(sketches, e.sketches[extra])
	for _, nd := range group {
		sum += nd.Len()
		sketches = append(sketches, e.sketches[nd])
	}
	if u := hll.Union(sketches...); u != nil {
		return u.Estimate(), nil
	}
	return float64(sum), nil
}

// SmallestOutput implements the SMALLESTOUTPUT (SO) heuristic of Section
// 4.3.3: each iteration merges the group of k sets whose union is smallest.
// Like SI it is a (2Hₙ+1)-approximation (Lemma 4.4).
//
// Pair scores are kept in a lazily-invalidated min-heap, realizing the
// paper's observation that after the first iteration only combinations
// involving the newly created sstable need fresh estimates; all others are
// reused (Section 5.1).
type SmallestOutput struct {
	est   UnionEstimator
	k     int
	alive map[*Node]bool
	pairs pairHeap
}

// NewSmallestOutput returns an SO chooser ranking merges with est.
func NewSmallestOutput(est UnionEstimator) *SmallestOutput {
	return &SmallestOutput{est: est}
}

// Name implements Chooser.
func (s *SmallestOutput) Name() string {
	if s.est.EstimatorName() == "exact" {
		return "SO(exact)"
	}
	return "SO"
}

// Init implements Chooser: score every pair of leaves.
func (s *SmallestOutput) Init(leaves []*Node, k int) error {
	s.k = k
	s.alive = make(map[*Node]bool, len(leaves))
	for _, nd := range leaves {
		if err := s.est.Prepare(nd); err != nil {
			return err
		}
		s.alive[nd] = true
	}
	s.pairs = make(pairHeap, 0, len(leaves)*(len(leaves)-1)/2)
	for i, a := range leaves {
		for _, b := range leaves[i+1:] {
			score, err := s.est.PairEstimate(a, b)
			if err != nil {
				return err
			}
			s.pairs = append(s.pairs, pairEntry{a: a, b: b, score: score})
		}
	}
	heap.Init(&s.pairs)
	return nil
}

// Choose implements Chooser: pop the best live pair, then for k > 2 grow
// the group greedily by the set minimizing the estimated union.
func (s *SmallestOutput) Choose() ([]*Node, error) {
	g := groupSize(s.k, len(s.alive))
	var best pairEntry
	for {
		if s.pairs.Len() == 0 {
			return nil, fmt.Errorf("pair heap exhausted")
		}
		best = heap.Pop(&s.pairs).(pairEntry)
		if s.alive[best.a] && s.alive[best.b] {
			break
		}
	}
	group := []*Node{best.a, best.b}
	for len(group) < g {
		var bestExtra *Node
		bestScore := 0.0
		for nd := range s.alive {
			if nd == group[0] || containsNode(group, nd) {
				continue
			}
			score, err := s.est.GroupEstimate(group, nd)
			if err != nil {
				return nil, err
			}
			if bestExtra == nil || score < bestScore || (score == bestScore && nd.ID < bestExtra.ID) {
				bestExtra, bestScore = nd, score
			}
		}
		if bestExtra == nil {
			break
		}
		group = append(group, bestExtra)
	}
	for _, nd := range group {
		delete(s.alive, nd)
	}
	return group, nil
}

// Observe implements Chooser: sketch the new node and score it against all
// live nodes — the (n−k choose k−1) fresh combinations of Section 5.1.
func (s *SmallestOutput) Observe(merged *Node) {
	if err := s.est.Prepare(merged); err != nil {
		// Prepare only fails on programmer error (missing child sketches);
		// surfacing it on the next Choose keeps the interface simple.
		return
	}
	for nd := range s.alive {
		score, err := s.est.PairEstimate(merged, nd)
		if err != nil {
			continue
		}
		// Normalize by ID so tie-breaking is canonical regardless of
		// insertion direction.
		a, b := merged, nd
		if a.ID > b.ID {
			a, b = b, a
		}
		heap.Push(&s.pairs, pairEntry{a: a, b: b, score: score})
	}
	s.alive[merged] = true
}

func containsNode(nodes []*Node, target *Node) bool {
	for _, nd := range nodes {
		if nd == target {
			return true
		}
	}
	return false
}

// pairEntry scores one candidate merge pair.
type pairEntry struct {
	a, b  *Node
	score float64
}

// pairHeap is a min-heap of pair scores with deterministic tie-breaking.
type pairHeap []pairEntry

func (h pairHeap) Len() int { return len(h) }
func (h pairHeap) Less(i, j int) bool {
	if h[i].score != h[j].score {
		return h[i].score < h[j].score
	}
	if h[i].a.ID != h[j].a.ID {
		return h[i].a.ID < h[j].a.ID
	}
	return h[i].b.ID < h[j].b.ID
}
func (h pairHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *pairHeap) Push(x any) { *h = append(*h, x.(pairEntry)) }

func (h *pairHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
