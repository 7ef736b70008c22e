package hll

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewPrecisionBounds(t *testing.T) {
	if _, err := New(3); err == nil {
		t.Errorf("New(3) should fail")
	}
	if _, err := New(19); err == nil {
		t.Errorf("New(19) should fail")
	}
	s, err := New(12)
	if err != nil {
		t.Fatalf("New(12): %v", err)
	}
	if s.Precision() != 12 {
		t.Errorf("Precision = %d", s.Precision())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustNew(1) should panic")
		}
	}()
	MustNew(1)
}

func TestEmptyEstimate(t *testing.T) {
	s := MustNew(12)
	if got := s.EstimateInt(); got != 0 {
		t.Errorf("empty sketch EstimateInt = %d, want 0", got)
	}
}

func TestEstimateWithinErrorBounds(t *testing.T) {
	cases := []struct {
		p    uint8
		n    int
		tolX float64 // tolerance in multiples of the standard error
	}{
		{10, 100, 6},
		{12, 1000, 6},
		{14, 10000, 6},
		{14, 200000, 6},
	}
	for _, c := range cases {
		s := MustNew(c.p)
		r := rand.New(rand.NewSource(int64(c.n)))
		seen := make(map[uint64]bool, c.n)
		for len(seen) < c.n {
			k := r.Uint64()
			seen[k] = true
			s.AddUint64(k)
			// Duplicates must not change the estimate's target.
			s.AddUint64(k)
		}
		est := s.Estimate()
		relErr := math.Abs(est-float64(c.n)) / float64(c.n)
		if maxErr := c.tolX * s.StdError(); relErr > maxErr {
			t.Errorf("p=%d n=%d: estimate %.1f rel err %.4f > %.4f", c.p, c.n, est, relErr, maxErr)
		}
	}
}

func TestSmallRangeLinearCounting(t *testing.T) {
	s := MustNew(14)
	for i := uint64(0); i < 10; i++ {
		s.AddUint64(i)
	}
	if got := s.EstimateInt(); got < 8 || got > 12 {
		t.Errorf("small-range estimate = %d, want ≈10", got)
	}
}

func TestMergeEqualsUnionStream(t *testing.T) {
	a, b, both := MustNew(12), MustNew(12), MustNew(12)
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 5000; i++ {
		k := r.Uint64()
		if i%2 == 0 {
			a.AddUint64(k)
		} else {
			b.AddUint64(k)
		}
		both.AddUint64(k)
	}
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if a.Estimate() != both.Estimate() {
		t.Errorf("merged estimate %.2f != union-stream estimate %.2f", a.Estimate(), both.Estimate())
	}
}

func TestMergePrecisionMismatch(t *testing.T) {
	a, b := MustNew(10), MustNew(12)
	if err := a.Merge(b); err != ErrPrecisionMismatch {
		t.Errorf("Merge err = %v, want ErrPrecisionMismatch", err)
	}
	if Union(a, b) != nil || Union(a, nil) != nil || Union() != nil {
		t.Errorf("Union of mismatched, missing or no sketches is not nil")
	}
}

func TestUnionDoesNotMutate(t *testing.T) {
	a := MustNew(12)
	b := MustNew(12)
	for i := uint64(0); i < 1000; i++ {
		a.AddUint64(i)
		b.AddUint64(i + 500)
	}
	beforeA, beforeB := a.Estimate(), b.Estimate()
	u := Union(a, b).Estimate()
	if a.Estimate() != beforeA || b.Estimate() != beforeB {
		t.Errorf("Union mutated an input sketch")
	}
	// |A∪B| = 1500; allow generous tolerance.
	if u < 1200 || u > 1800 {
		t.Errorf("union estimate %.1f, want ≈1500", u)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := MustNew(10)
	a.AddUint64(1)
	c := a.Clone()
	c.AddUint64(999999)
	if a.Estimate() == c.Estimate() {
		t.Errorf("mutating clone changed original (estimates equal at %.2f)", a.Estimate())
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	s := MustNew(11)
	for i := uint64(0); i < 3000; i++ {
		s.AddUint64(i * 7)
	}
	got, err := Unmarshal(s.Marshal())
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if got.Estimate() != s.Estimate() || got.Precision() != s.Precision() {
		t.Errorf("round trip changed sketch")
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Errorf("nil input accepted")
	}
	if _, err := Unmarshal([]byte{2, 0, 0}); err == nil {
		t.Errorf("bad precision accepted")
	}
	if _, err := Unmarshal([]byte{10, 0, 0}); err == nil {
		t.Errorf("truncated registers accepted")
	}
}

func TestByteKeysMatchCardinality(t *testing.T) {
	s := MustNew(12)
	for i := 0; i < 2000; i++ {
		s.Add([]byte{byte(i), byte(i >> 8), 'k'})
	}
	est := s.Estimate()
	if est < 1800 || est > 2200 {
		t.Errorf("byte-key estimate %.1f, want ≈2000", est)
	}
}

func TestQuickMergeCommutative(t *testing.T) {
	f := func(seedA, seedB int64) bool {
		mk := func(seed int64) *Sketch {
			s := MustNew(8)
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				s.AddUint64(r.Uint64() % 500)
			}
			return s
		}
		ab := mk(seedA)
		if err := ab.Merge(mk(seedB)); err != nil {
			return false
		}
		ba := mk(seedB)
		if err := ba.Merge(mk(seedA)); err != nil {
			return false
		}
		return ab.Estimate() == ba.Estimate()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSketchOfUint64s(t *testing.T) {
	keys := make([]uint64, 1000)
	for i := range keys {
		keys[i] = uint64(i)
	}
	s, err := SketchOfUint64s(12, keys)
	if err != nil {
		t.Fatalf("SketchOfUint64s: %v", err)
	}
	if est := s.EstimateInt(); est < 900 || est > 1100 {
		t.Errorf("estimate %d, want ≈1000", est)
	}
	if _, err := SketchOfUint64s(1, keys); err == nil {
		t.Errorf("invalid precision accepted")
	}
}

func BenchmarkAddUint64(b *testing.B) {
	s := MustNew(14)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddUint64(uint64(i))
	}
}

func BenchmarkUnion(b *testing.B) {
	x := MustNew(12)
	y := MustNew(12)
	for i := uint64(0); i < 10000; i++ {
		x.AddUint64(i)
		y.AddUint64(i + 5000)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Union(x, y).Estimate() == 0 {
			b.Fatal("empty union")
		}
	}
}
