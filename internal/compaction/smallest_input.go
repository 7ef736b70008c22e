package compaction

import "container/heap"

// SmallestInput implements the SMALLESTINPUT (SI) heuristic of Section
// 4.3.2: each iteration merges the k sets of smallest cardinality, deferring
// large sets so their contents are re-copied as few times as possible. SI is
// a (2Hₙ+1)-approximation (Lemma 4.4) and is optimal when the input sets are
// disjoint, where the problem reduces to Huffman coding (Lemma 4.3).
//
// Following the paper's implementation note (Section 5.1), the collection is
// kept in a priority queue, giving O(log n) per iteration.
type SmallestInput struct {
	k  int
	pq nodeHeap
}

// NewSmallestInput returns a fresh SI chooser.
func NewSmallestInput() *SmallestInput { return &SmallestInput{} }

// Name implements Chooser.
func (s *SmallestInput) Name() string { return "SI" }

// Init implements Chooser.
func (s *SmallestInput) Init(leaves []*Node, k int) error {
	s.k = k
	s.pq = make(nodeHeap, len(leaves))
	copy(s.pq, leaves)
	heap.Init(&s.pq)
	return nil
}

// Choose implements Chooser: pop the min(k, live) smallest sets.
func (s *SmallestInput) Choose() ([]*Node, error) {
	g := groupSize(s.k, s.pq.Len())
	group := make([]*Node, 0, g)
	for i := 0; i < g; i++ {
		group = append(group, heap.Pop(&s.pq).(*Node))
	}
	return group, nil
}

// Observe implements Chooser.
func (s *SmallestInput) Observe(merged *Node) {
	heap.Push(&s.pq, merged)
}

// nodeHeap is a min-heap of nodes ordered by set cardinality, tie-broken by
// node ID for determinism.
type nodeHeap []*Node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if li, lj := h[i].Len(), h[j].Len(); li != lj {
		return li < lj
	}
	return h[i].ID < h[j].ID
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

func (h *nodeHeap) Push(x any) { *h = append(*h, x.(*Node)) }

func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}
