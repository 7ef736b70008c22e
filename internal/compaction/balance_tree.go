package compaction

import (
	"fmt"
	"sort"
)

// Order selects how BALANCETREE picks the sets to merge within a level,
// since the heuristic itself "does not specify an order for choosing
// sstables to merge in a single level" (Section 5.1).
type Order int

// Inner orders for BALANCETREE.
const (
	// OrderSmallestInput pairs sets in increasing order of cardinality:
	// the BT(I) strategy of the evaluation.
	OrderSmallestInput Order = iota
	// OrderSmallestOutput picks the group with the smallest estimated
	// union at the current level: the BT(O) strategy. Estimates come from
	// the chooser's UnionEstimator, whose per-iteration overhead is
	// amortized across the many merges of a level.
	OrderSmallestOutput
	// OrderArbitrary pairs sets in input (node ID) order — the plain
	// BALANCETREE of Section 4.3.1, which leaves the within-level order
	// unspecified; Figure 4's working example pairs (A1,A2), (A3,A4).
	OrderArbitrary
)

// BalanceTree implements the BALANCETREE (BT) heuristic of Section 4.3.1:
// merge so that the underlying merge tree is a complete k-ary tree. Each
// set is annotated with a level number (leaves start at 1); every iteration
// merges k sets at the minimum live level minL into a set at level minL+1,
// and a stranded single set at minL is promoted and the process retried.
// BT is a (⌈log n⌉+1)-approximation (Lemma 4.1) and the bound is tight
// (Lemma 4.2). Because all merges within a level are independent, BT is the
// strategy that parallelizes naturally (see ExecuteParallel).
type BalanceTree struct {
	order Order
	est   UnionEstimator
	k     int
	alive map[*Node]bool
	// pairMemo caches union estimates across the repeated within-level
	// scans of BT(O); "the overhead for this strategy is amortized over
	// multiple iterations that happen in a single level" (Section 5.1).
	pairMemo map[[2]int]float64
}

// NewBalanceTree returns a BT chooser. est is only consulted for
// OrderSmallestOutput; pass nil for OrderSmallestInput.
func NewBalanceTree(order Order, est UnionEstimator) *BalanceTree {
	return &BalanceTree{order: order, est: est, pairMemo: make(map[[2]int]float64)}
}

// Name implements Chooser.
func (b *BalanceTree) Name() string {
	switch b.order {
	case OrderSmallestOutput:
		return "BT(O)"
	case OrderArbitrary:
		return "BT"
	default:
		return "BT(I)"
	}
}

// Init implements Chooser.
func (b *BalanceTree) Init(leaves []*Node, k int) error {
	if b.order == OrderSmallestOutput && b.est == nil {
		return fmt.Errorf("BT(O) requires a union estimator")
	}
	b.k = k
	b.alive = make(map[*Node]bool, len(leaves))
	for _, nd := range leaves {
		nd.Level = 1
		b.alive[nd] = true
		if b.est != nil {
			if err := b.est.Prepare(nd); err != nil {
				return err
			}
		}
	}
	return nil
}

// minLevelNodes returns the live nodes at the minimum level, promoting a
// stranded singleton level until at least two nodes share minL (the
// "increment its l by 1 and retry" rule).
func (b *BalanceTree) minLevelNodes() []*Node {
	for {
		minL := 0
		for nd := range b.alive {
			if minL == 0 || nd.Level < minL {
				minL = nd.Level
			}
		}
		var at []*Node
		for nd := range b.alive {
			if nd.Level == minL {
				at = append(at, nd)
			}
		}
		if len(at) >= 2 {
			sort.Slice(at, func(i, j int) bool { return at[i].ID < at[j].ID })
			return at
		}
		at[0].Level++
	}
}

// Choose implements Chooser.
func (b *BalanceTree) Choose() ([]*Node, error) {
	at := b.minLevelNodes()
	g := groupSize(b.k, len(at))
	switch b.order {
	case OrderSmallestOutput:
		return b.chooseSmallestOutput(at, g)
	case OrderArbitrary:
		group := at[:g] // minLevelNodes already sorted by ID
		for _, nd := range group {
			delete(b.alive, nd)
		}
		return group, nil
	default:
		sort.Slice(at, func(i, j int) bool {
			if li, lj := at[i].Len(), at[j].Len(); li != lj {
				return li < lj
			}
			return at[i].ID < at[j].ID
		})
		group := at[:g]
		for _, nd := range group {
			delete(b.alive, nd)
		}
		return group, nil
	}
}

// chooseSmallestOutput finds, among nodes at the current level, the best
// pair by estimated union and grows it to g sets.
func (b *BalanceTree) chooseSmallestOutput(at []*Node, g int) ([]*Node, error) {
	var bestA, bestB *Node
	bestScore := 0.0
	for i, a := range at {
		for _, nd := range at[i+1:] {
			score, err := b.pairEstimate(a, nd)
			if err != nil {
				return nil, err
			}
			if bestA == nil || score < bestScore {
				bestA, bestB, bestScore = a, nd, score
			}
		}
	}
	group := []*Node{bestA, bestB}
	for len(group) < g {
		var bestExtra *Node
		extraScore := 0.0
		for _, nd := range at {
			if containsNode(group, nd) {
				continue
			}
			score, err := b.est.GroupEstimate(group, nd)
			if err != nil {
				return nil, err
			}
			if bestExtra == nil || score < extraScore {
				bestExtra, extraScore = nd, score
			}
		}
		if bestExtra == nil {
			break
		}
		group = append(group, bestExtra)
	}
	for _, nd := range group {
		delete(b.alive, nd)
	}
	return group, nil
}

// pairEstimate is a memoized UnionEstimator.PairEstimate: nodes are
// immutable, so a pair's estimate never changes across the within-level
// rescans.
func (b *BalanceTree) pairEstimate(x, y *Node) (float64, error) {
	key := [2]int{x.ID, y.ID}
	if x.ID > y.ID {
		key = [2]int{y.ID, x.ID}
	}
	if score, ok := b.pairMemo[key]; ok {
		return score, nil
	}
	score, err := b.est.PairEstimate(x, y)
	if err != nil {
		return 0, err
	}
	b.pairMemo[key] = score
	return score, nil
}

// Observe implements Chooser. Run assigns the merged node level
// max(child levels)+1, which for BT's discipline is minL+1.
func (b *BalanceTree) Observe(merged *Node) {
	if b.est != nil {
		// Best-effort: Prepare only fails on missing child sketches,
		// impossible within a single run.
		_ = b.est.Prepare(merged)
	}
	b.alive[merged] = true
}
