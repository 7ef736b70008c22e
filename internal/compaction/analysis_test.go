package compaction

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/keyset"
)

// TestCostByElementIdentity asserts the equation 2.2 reformulation:
// Σ_x (|T(x)|+1) = Σ_ν |A_ν| on every strategy's schedules.
func TestCostByElementIdentity(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 15; trial++ {
		inst := randomInstance(r, 2+r.Intn(10), 60, 15)
		for _, name := range []string{"SI", "SO(exact)", "BT(I)", "LM"} {
			sc := runStrategy(t, inst, 2, name)
			if got, want := sc.CostByElement(), sc.CostSimple(); got != want {
				t.Fatalf("%s: CostByElement %d != CostSimple %d", name, got, want)
			}
			// Per-element spans must sum to the total.
			sum := 0
			for _, x := range inst.Universe().Keys() {
				sum += sc.ElementSpan(x)
			}
			if sum != sc.CostSimple() {
				t.Fatalf("%s: Σ ElementSpan = %d != %d", name, sum, sc.CostSimple())
			}
		}
	}
}

func TestTreeShapes(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		ct := CompleteTree(n)
		if got := ct.LeafCount(); got != n {
			t.Errorf("CompleteTree(%d) leaves = %d", n, got)
		}
	}
	for _, n := range []int{1, 2, 3, 5, 9} {
		cat := CaterpillarTree(n)
		if got := cat.LeafCount(); got != n {
			t.Errorf("CaterpillarTree(%d) leaves = %d", n, got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Errorf("CompleteTree(3) should panic")
		}
	}()
	CompleteTree(3)
}

// TestEtaLowerBound verifies Lemma A.2: η(T) ≥ n·log(2n) for every full
// binary tree with n = 2^h leaves, with equality exactly for the perfect
// tree.
func TestEtaLowerBound(t *testing.T) {
	for _, h := range []int{1, 2, 3, 4} {
		n := 1 << h
		perfect := CompleteTree(n)
		want := n * int(math.Log2(float64(2*n)))
		if got := perfect.Eta(); got != want {
			t.Errorf("η(perfect %d) = %d, want n·log 2n = %d", n, got, want)
		}
		if n > 2 { // for n=2 the caterpillar is the perfect tree
			cat := CaterpillarTree(n)
			if got := cat.Eta(); got <= want {
				t.Errorf("η(caterpillar %d) = %d, should exceed perfect's %d", n, got, want)
			}
		}
	}
	// Random full binary trees also respect the bound.
	r := rand.New(rand.NewSource(67))
	var build func(leaves int) *TreeShape
	build = func(leaves int) *TreeShape {
		if leaves == 1 {
			return &TreeShape{}
		}
		l := 1 + r.Intn(leaves-1)
		return &TreeShape{Left: build(l), Right: build(leaves - l)}
	}
	for trial := 0; trial < 30; trial++ {
		n := 8
		shape := build(n)
		bound := int(math.Ceil(float64(n) * math.Log2(float64(2*n))))
		if got := shape.Eta(); got < bound {
			t.Errorf("η = %d below n·log 2n = %d", got, bound)
		}
	}
}

func TestAssignTreeCaterpillarChain(t *testing.T) {
	// On the LM adversarial family, the identity assignment on the
	// caterpillar realizes exactly the optimal left-to-right chain.
	const n = 8
	inst := AdversarialLargestMatch(n)
	// CaterpillarTree leaves left-to-right: the deepest two leaves first.
	perm := []int{0, 1, 2, 3, 4, 5, 6, 7}
	sc, err := AssignTree(inst, CaterpillarTree(n), perm)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, want := sc.CostSimple(), 1<<(n+1)-3; got != want {
		t.Errorf("caterpillar chain cost = %d, want 2^(n+1)-3 = %d", got, want)
	}
	if got := sc.Height(); got != n-1 {
		t.Errorf("caterpillar height = %d, want n-1", got)
	}
}

func TestAssignTreeValidation(t *testing.T) {
	inst := WorkingExample()
	if _, err := AssignTree(inst, CompleteTree(4), []int{0, 1, 2, 3}); err == nil {
		t.Errorf("leaf-count mismatch accepted")
	}
	shape := CaterpillarTree(5)
	if _, err := AssignTree(inst, shape, []int{0, 1, 2, 3}); err == nil {
		t.Errorf("short permutation accepted")
	}
	if _, err := AssignTree(inst, shape, []int{0, 0, 1, 2, 3}); err == nil {
		t.Errorf("non-permutation accepted")
	}
	sc, err := AssignTree(inst, shape, []int{4, 3, 2, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Validate(); err != nil {
		t.Errorf("valid assignment rejected: %v", err)
	}
}

// TestOptTreeAssignBeatsArbitrary checks the brute-force fixed-tree
// optimizer: it must never lose to any single assignment, and on the
// complete tree its value lower-bounds every BT run (BT produces complete
// trees, but with a fixed greedy assignment).
func TestOptTreeAssignBeatsArbitrary(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	for trial := 0; trial < 5; trial++ {
		inst := randomInstance(r, 8, 40, 10)
		shape := CompleteTree(8)
		best, err := OptTreeAssign(inst, shape)
		if err != nil {
			t.Fatal(err)
		}
		if err := best.Validate(); err != nil {
			t.Fatal(err)
		}
		perm := []int{0, 1, 2, 3, 4, 5, 6, 7}
		arbitrary, err := AssignTree(inst, shape, perm)
		if err != nil {
			t.Fatal(err)
		}
		if best.CostSimple() > arbitrary.CostSimple() {
			t.Errorf("OptTreeAssign %d worse than arbitrary %d", best.CostSimple(), arbitrary.CostSimple())
		}
		bt := runStrategy(t, inst, 2, "BT(I)")
		if bt.Height() == 3 && best.CostSimple() > bt.CostSimple() {
			t.Errorf("OptTreeAssign %d worse than BT(I) %d on the same shape", best.CostSimple(), bt.CostSimple())
		}
	}
}

func TestOptTreeAssignLimit(t *testing.T) {
	if _, err := OptTreeAssign(DisjointSingletons(10), CaterpillarTree(10)); err == nil {
		t.Errorf("n=10 accepted (limit is 9)")
	}
}

// TestLemmaA5Forcing verifies the NP-hardness forcing construction: after
// padding each set with a disjoint block of size > 2mn, (1) the optimal
// tree of the padded instance is the complete tree, and (2) the identity
// opta(T̄, A) = opts(A ∪ B) − S·n·log(2n) holds (Lemma A.5).
func TestLemmaA5Forcing(t *testing.T) {
	r := rand.New(rand.NewSource(73))
	for trial := 0; trial < 3; trial++ {
		inst := randomInstance(r, 4, 10, 4) // n=4, power of two, tiny m
		n := inst.N()
		s := MinPadSize(inst)
		padded := PadWithDisjoint(inst, s)

		opt, err := OptimalBinary(padded)
		if err != nil {
			t.Fatal(err)
		}
		// (1) The optimal tree must be the complete (height log n) tree.
		if got, want := opt.Height(), int(math.Log2(float64(n))); got != want {
			t.Fatalf("padded optimal height = %d, want %d", got, want)
		}
		// (2) The cost identity.
		shape := CompleteTree(n)
		bestFixed, err := OptTreeAssign(inst, shape)
		if err != nil {
			t.Fatal(err)
		}
		logTerm := s * n * int(math.Log2(float64(2*n)))
		if got, want := bestFixed.CostSimple(), opt.CostSimple()-logTerm; got != want {
			t.Errorf("opta = %d, opts − S·n·log2n = %d − %d = %d", got, opt.CostSimple(), logTerm, want)
		}
	}
}

func TestPadWithDisjoint(t *testing.T) {
	inst := WorkingExample()
	padded := PadWithDisjoint(inst, 10)
	if padded.N() != inst.N() {
		t.Fatalf("padded N = %d", padded.N())
	}
	for i := 0; i < padded.N(); i++ {
		if got, want := padded.Table(i).Set.Len(), inst.Table(i).Set.Len()+10; got != want {
			t.Errorf("table %d size = %d, want %d", i, got, want)
		}
		// Original keys preserved.
		if !inst.Table(i).Set.Subset(padded.Table(i).Set) {
			t.Errorf("table %d lost original keys", i)
		}
		// Pads disjoint from each other.
		for j := i + 1; j < padded.N(); j++ {
			inter := padded.Table(i).Set.Intersect(padded.Table(j).Set)
			if !inter.Equal(inst.Table(i).Set.Intersect(inst.Table(j).Set)) {
				t.Errorf("pads of tables %d,%d overlap", i, j)
			}
		}
	}
	if MinPadSize(inst) != 2*9*5+1 {
		t.Errorf("MinPadSize = %d", MinPadSize(inst))
	}
}

func TestNextPermutation(t *testing.T) {
	perm := []int{0, 1, 2}
	count := 1
	for nextPermutation(perm) {
		count++
	}
	if count != 6 {
		t.Errorf("enumerated %d permutations of 3, want 6", count)
	}
}

func TestQuickScheduleInvariants(t *testing.T) {
	// Property test across strategies, k values and random instances:
	// every run validates, root = universe, and the two cost identities
	// hold.
	f := func(seed int64, stratIdx, kIdx uint8) bool {
		r := rand.New(rand.NewSource(seed))
		names := StrategyNames()
		name := names[int(stratIdx)%len(names)]
		k := 2 + int(kIdx)%3
		inst := randomInstance(r, 2+r.Intn(9), 50, 12)
		ch, err := NewChooserByName(name, seed)
		if err != nil {
			return false
		}
		sc, err := Run(inst, k, ch)
		if err != nil {
			return false
		}
		if sc.Validate() != nil {
			return false
		}
		if !sc.Root.Set.Equal(inst.Universe()) {
			return false
		}
		if sc.CostByElement() != sc.CostSimple() {
			return false
		}
		return sc.CostSimple() >= inst.LowerBound()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestElementSpanSingleKey(t *testing.T) {
	inst := NewInstance(keyset.New(1), keyset.New(1), keyset.New(2))
	sc := runStrategy(t, inst, 2, "SI")
	// Key 1 is in two leaves and at least one internal node plus the root.
	if got := sc.ElementSpan(1); got < 4 {
		t.Errorf("ElementSpan(1) = %d, want ≥ 4", got)
	}
	if got := sc.ElementSpan(99); got != 0 {
		t.Errorf("ElementSpan(absent) = %d", got)
	}
}
