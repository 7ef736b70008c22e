package keyset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDeduplicatesAndSorts(t *testing.T) {
	s := New(5, 3, 3, 1, 5, 2)
	want := []uint64{1, 2, 3, 5}
	if got := s.Keys(); len(got) != len(want) {
		t.Fatalf("Keys() = %v, want %v", got, want)
	}
	for i, k := range want {
		if s.Keys()[i] != k {
			t.Fatalf("Keys() = %v, want %v", s.Keys(), want)
		}
	}
	if s.Len() != 4 {
		t.Errorf("Len() = %d, want 4", s.Len())
	}
}

func TestEmptySet(t *testing.T) {
	var s Set
	if !s.Empty() || s.Len() != 0 {
		t.Errorf("zero Set should be empty")
	}
	if s.Contains(0) {
		t.Errorf("empty set should contain nothing")
	}
	u := s.Union(New(1, 2))
	if u.Len() != 2 {
		t.Errorf("empty ∪ {1,2} = %v", u)
	}
	if got := s.Union(s); !got.Empty() {
		t.Errorf("empty ∪ empty = %v, want empty", got)
	}
}

func TestFromSortedPanicsOnUnsorted(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("FromSorted accepted unsorted input")
		}
	}()
	FromSorted([]uint64{2, 1})
}

func TestFromSortedPanicsOnDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("FromSorted accepted duplicate keys")
		}
	}()
	FromSorted([]uint64{1, 1})
}

func TestRange(t *testing.T) {
	s := Range(3, 7)
	if s.Len() != 4 || !s.Contains(3) || !s.Contains(6) || s.Contains(7) {
		t.Errorf("Range(3,7) = %v", s)
	}
	if !Range(5, 5).Empty() || !Range(6, 2).Empty() {
		t.Errorf("degenerate ranges should be empty")
	}
}

func TestUnionBasic(t *testing.T) {
	a := New(1, 2, 3, 5)
	b := New(1, 2, 3, 4)
	u := a.Union(b)
	if !u.Equal(New(1, 2, 3, 4, 5)) {
		t.Errorf("union = %v", u)
	}
	// Operands must be unchanged.
	if !a.Equal(New(1, 2, 3, 5)) || !b.Equal(New(1, 2, 3, 4)) {
		t.Errorf("union mutated an operand")
	}
}

func TestIntersect(t *testing.T) {
	a := New(1, 2, 3, 5)
	b := New(3, 4, 5)
	if got := a.Intersect(b); !got.Equal(New(3, 5)) {
		t.Errorf("intersect = %v, want {3,5}", got)
	}
	if got := a.IntersectLen(b); got != 2 {
		t.Errorf("IntersectLen = %d, want 2", got)
	}
	if got := a.UnionLen(b); got != 5 {
		t.Errorf("UnionLen = %d, want 5", got)
	}
}

func TestSubsetAndDisjoint(t *testing.T) {
	a := New(2, 4)
	b := New(1, 2, 3, 4)
	if !a.Subset(b) {
		t.Errorf("{2,4} should be subset of {1,2,3,4}")
	}
	if b.Subset(a) {
		t.Errorf("{1,2,3,4} is not a subset of {2,4}")
	}
	if !New(1, 2).Disjoint(New(3, 4)) {
		t.Errorf("disjoint sets reported as overlapping")
	}
	if New(1, 2).Disjoint(New(2, 3)) {
		t.Errorf("overlapping sets reported as disjoint")
	}
	var empty Set
	if !empty.Subset(a) {
		t.Errorf("empty set should be subset of everything")
	}
}

func TestUnionAll(t *testing.T) {
	u := UnionAll(New(1), New(2), New(1, 3))
	if !u.Equal(New(1, 2, 3)) {
		t.Errorf("UnionAll = %v", u)
	}
	if !UnionAll().Empty() {
		t.Errorf("UnionAll() should be empty")
	}
	one := New(7)
	if !UnionAll(one).Equal(one) {
		t.Errorf("UnionAll(one) should be identity")
	}
}

func TestStringAbbreviates(t *testing.T) {
	small := New(1, 2, 3)
	if got := small.String(); got != "{1, 2, 3}" {
		t.Errorf("String() = %q", got)
	}
	big := Range(0, 100)
	if got := big.String(); len(got) > 200 {
		t.Errorf("large set String() not abbreviated: %q", got)
	}
}

// randomSet draws a set of size up to n from a universe of size m.
func randomSet(r *rand.Rand, n, m int) Set {
	keys := make([]uint64, r.Intn(n+1))
	for i := range keys {
		keys[i] = uint64(r.Intn(m))
	}
	return New(keys...)
}

func TestUnionProperties(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b, c := randomSet(rr, 50, 80), randomSet(rr, 50, 80), randomSet(rr, 50, 80)
		// Commutativity, associativity, idempotence, identity.
		if !a.Union(b).Equal(b.Union(a)) {
			return false
		}
		if !a.Union(b).Union(c).Equal(a.Union(b.Union(c))) {
			return false
		}
		if !a.Union(a).Equal(a) {
			return false
		}
		var empty Set
		return a.Union(empty).Equal(a)
	}
	cfg := &quick.Config{MaxCount: 200, Rand: r}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestInclusionExclusionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		a, b := randomSet(rr, 60, 90), randomSet(rr, 60, 90)
		return a.UnionLen(b)+a.IntersectLen(b) == a.Len()+b.Len() &&
			a.Union(b).Len() == a.UnionLen(b) &&
			a.Intersect(b).Len() == a.IntersectLen(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCardinalityIsSubmodular(t *testing.T) {
	// |S∪T| + |S∩T| <= |S| + |T| (with equality, for cardinality).
	f := func(seed int64) bool {
		rr := rand.New(rand.NewSource(seed))
		s, tt := randomSet(rr, 40, 60), randomSet(rr, 40, 60)
		return s.UnionLen(tt)+s.IntersectLen(tt) == s.Len()+tt.Len()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCostFns(t *testing.T) {
	s := New(1, 2, 3, 4)
	if got := CardinalityCost(s); got != 4 {
		t.Errorf("CardinalityCost = %v", got)
	}
	if got := InitPlusCardinalityCost(10)(s); got != 14 {
		t.Errorf("InitPlusCardinalityCost = %v", got)
	}
}

func BenchmarkUnion(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	x := randomSet(r, 10000, 1<<20)
	y := randomSet(r, 10000, 1<<20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Union(y)
	}
}

func BenchmarkIntersectLen(b *testing.B) {
	r := rand.New(rand.NewSource(42))
	x := randomSet(r, 10000, 1<<20)
	y := randomSet(r, 10000, 1<<20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.IntersectLen(y)
	}
}
