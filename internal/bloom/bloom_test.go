package bloom

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := NewWithEstimates(1000, 0.01)
	for i := uint64(0); i < 1000; i++ {
		f.AddUint64(i)
	}
	for i := uint64(0); i < 1000; i++ {
		if !f.MayContainUint64(i) {
			t.Fatalf("false negative for key %d", i)
		}
	}
	if f.Count() != 1000 {
		t.Errorf("Count = %d, want 1000", f.Count())
	}
}

func TestFalsePositiveRateNearTarget(t *testing.T) {
	const n = 10000
	const target = 0.01
	f := NewWithEstimates(n, target)
	for i := uint64(0); i < n; i++ {
		f.AddUint64(i)
	}
	fp := 0
	const probes = 20000
	for i := uint64(n); i < n+probes; i++ {
		if f.MayContainUint64(i) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 5*target {
		t.Errorf("false positive rate %.4f far above target %.4f", rate, target)
	}
	if est := f.EstimatedFalsePositiveRate(); est > 5*target {
		t.Errorf("estimated fp rate %.4f far above target", est)
	}
}

// TestFalsePositiveRateOnStructuredKeys measures the filter on keys shaped
// like the benchmark harness's — "user" + 16 hex digits of a random id —
// through the byte-key path tables use. A 1 % design (k=7, 9.6 bits/key)
// measures about 4.5 % there with keyhash's FNV-1a pair as the
// double-hashing input and about 1.05 % with the pair finalised, bounded
// here at 1.5 %.
func TestFalsePositiveRateOnStructuredKeys(t *testing.T) {
	key := func(id uint64) []byte { return []byte(fmt.Sprintf("user%016x", id)) }
	for _, n := range []int{1000, 8000, 30000} {
		rng := rand.New(rand.NewSource(int64(n)))
		f := NewWithEstimates(uint64(n), 0.01)
		present := make(map[uint64]bool, n)
		for len(present) < n {
			id := rng.Uint64()
			if !present[id] {
				present[id] = true
				f.Add(key(id))
			}
		}
		const probes = 100000
		fp := 0
		for i := 0; i < probes; i++ {
			id := rng.Uint64()
			if !present[id] && f.MayContain(key(id)) {
				fp++
			}
		}
		rate := float64(fp) / probes
		t.Logf("n=%d: %.2f%% false positives at a 1%% design", n, 100*rate)
		if rate > 0.015 {
			t.Errorf("n=%d: false-positive rate %.2f%% on structured keys, bound 1.5%%", n, 100*rate)
		}
	}
}

func TestDegenerateConstruction(t *testing.T) {
	f := New(0, 0)
	f.AddUint64(42)
	if !f.MayContainUint64(42) {
		t.Errorf("degenerate filter lost a key")
	}
	if f.NumBits() == 0 || f.NumHashes() == 0 {
		t.Errorf("degenerate construction produced zero capacity")
	}
	g := NewWithEstimates(0, -1)
	g.Add([]byte("x"))
	if !g.MayContain([]byte("x")) {
		t.Errorf("defaulted estimates filter lost a key")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	f := NewWithEstimates(500, 0.02)
	r := rand.New(rand.NewSource(7))
	keys := make([]uint64, 500)
	for i := range keys {
		keys[i] = r.Uint64()
		f.AddUint64(keys[i])
	}
	g, err := Unmarshal(f.Marshal())
	if err != nil {
		t.Fatalf("Unmarshal: %v", err)
	}
	if g.NumBits() != f.NumBits() || g.NumHashes() != f.NumHashes() || g.Count() != f.Count() {
		t.Errorf("metadata mismatch after round trip")
	}
	for _, k := range keys {
		if !g.MayContainUint64(k) {
			t.Fatalf("round-tripped filter lost key %d", k)
		}
	}
}

func TestUnmarshalCorrupt(t *testing.T) {
	cases := [][]byte{
		nil,
		{1, 2, 3},
		make([]byte, 16), // zero hashes/words
		make([]byte, 15), // short header
	}
	for i, c := range cases {
		if _, err := Unmarshal(c); err == nil {
			t.Errorf("case %d: Unmarshal accepted corrupt input", i)
		}
	}
	// Truncated body: valid header claiming more words than present.
	f := New(256, 3)
	f.AddUint64(1)
	enc := f.Marshal()
	if _, err := Unmarshal(enc[:len(enc)-8]); err == nil {
		t.Errorf("Unmarshal accepted truncated body")
	}
}

func TestQuickNoFalseNegatives(t *testing.T) {
	f := func(keys []uint64) bool {
		fl := NewWithEstimates(uint64(len(keys)+1), 0.01)
		for _, k := range keys {
			fl.AddUint64(k)
		}
		for _, k := range keys {
			if !fl.MayContainUint64(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestByteAndUint64KeysAgree(t *testing.T) {
	f := New(1024, 4)
	f.AddUint64(99)
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], 99)
	if !f.MayContain(buf[:]) {
		t.Errorf("byte-encoded probe should hit for key added via AddUint64")
	}
}

// referenceFilter is the filter as the table format defines it: each probe
// position recomputed from two byte-at-a-time FNV-1a passes, each finalised
// by splitmix64's mixer, (m(h1) + i·m(h2)) mod nbits. It shares no code with
// the filter, which must set exactly these bits.
type referenceFilter struct {
	bits   []uint64
	nbits  uint64
	hashes uint32
}

func referenceFNV1a64(data []byte, seed uint64) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset) ^ seed
	for _, b := range data {
		h ^= uint64(b)
		h *= prime
	}
	return h
}

// referenceMix is splitmix64 (Steele, Lea and Flood) without its increment.
func referenceMix(z uint64) uint64 {
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z
}

func (f *referenceFilter) probe(key []byte, i uint32) uint64 {
	h1 := referenceMix(referenceFNV1a64(key, 0))
	h2 := referenceMix(referenceFNV1a64(key, 0x9e3779b97f4a7c15))
	return (h1 + uint64(i)*h2) % f.nbits
}

func (f *referenceFilter) add(key []byte) {
	for i := uint32(0); i < f.hashes; i++ {
		pos := f.probe(key, i)
		f.bits[pos/64] |= 1 << (pos % 64)
	}
}

// referenceOf builds the reference twin of a fresh Filter.
func referenceOf(f *Filter) *referenceFilter {
	return &referenceFilter{bits: make([]uint64, len(f.bits)), nbits: f.nbits, hashes: f.hashes}
}

// TestMarshalMatchesReferenceFormula pins the on-disk format: over random
// keys of length 0–64 and every probe count 1–16, the serialized filter is
// byte-identical to one built with the per-probe reference formula.
func TestMarshalMatchesReferenceFormula(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for hashes := uint32(1); hashes <= 16; hashes++ {
		// Bit counts that are not powers of two: the modulo must see the
		// wrapped 64-bit sum, not the mathematical one.
		f := New(uint64(64*(3+rng.Intn(200))), hashes)
		ref := referenceOf(f)
		for n := 0; n < 300; n++ {
			key := make([]byte, rng.Intn(65))
			rng.Read(key)
			f.Add(key)
			ref.add(key)
			if !f.MayContain(key) {
				t.Fatalf("hashes=%d: false negative for %x", hashes, key)
			}
		}
		want := &Filter{bits: ref.bits, nbits: ref.nbits, hashes: ref.hashes, count: f.count}
		if !bytes.Equal(f.Marshal(), want.Marshal()) {
			t.Fatalf("hashes=%d nbits=%d: Marshal differs from the reference formula", hashes, f.nbits)
		}
	}
}

// FuzzBloomHashCompat: any key sets the same bit positions under the
// single-pass, step-by-addition filter as under the reference formula.
func FuzzBloomHashCompat(f *testing.F) {
	f.Add([]byte(nil), uint8(7), uint16(1))
	f.Add([]byte("key-00000007"), uint8(7), uint16(150))
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint8(16), uint16(999))
	f.Fuzz(func(t *testing.T, key []byte, hashes uint8, words uint16) {
		fl := New(64*uint64(words), uint32(hashes))
		ref := referenceOf(fl)
		fl.Add(key)
		ref.add(key)
		for i, w := range fl.bits {
			if w != ref.bits[i] {
				t.Fatalf("key %x hashes=%d nbits=%d: word %d = %#x, reference %#x", key, fl.hashes, fl.nbits, i, w, ref.bits[i])
			}
		}
		if !fl.MayContain(key) {
			t.Fatalf("key %x: false negative", key)
		}
	})
}

// benchFilter is a filter sized for, and holding, n 20-byte keys — the
// harness's key length — plus the keys.
func benchFilter(n int) (*Filter, [][]byte) {
	f := NewWithEstimates(uint64(n), 0.01)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%016d", i))
		f.Add(keys[i])
	}
	return f, keys
}

var benchSink bool

func BenchmarkFilterAdd(b *testing.B) {
	_, keys := benchFilter(8192)
	f := NewWithEstimates(uint64(len(keys)), 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Add(keys[i%len(keys)])
	}
}

func BenchmarkFilterHit(b *testing.B) {
	f, keys := benchFilter(8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = f.MayContain(keys[i%len(keys)])
	}
}

func BenchmarkFilterMiss(b *testing.B) {
	f, keys := benchFilter(8192)
	absent := make([][]byte, len(keys))
	for i, k := range keys {
		absent[i] = append(append([]byte(nil), k[:len(k)-1]...), '!')
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = f.MayContain(absent[i%len(absent)])
	}
}
