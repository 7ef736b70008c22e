package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// put is Set with the test's usual shape: a live value, nothing retained.
func put(l *List, key, value string, seq uint64) {
	l.Set([]byte(key), []byte(value), seq, false, 0)
}

func TestSetGet(t *testing.T) {
	l := New(1)
	put(l, "b", "2", 1)
	put(l, "a", "1", 2)
	put(l, "c", "3", 3)
	for k, want := range map[string]string{"a": "1", "b": "2", "c": "3"} {
		v := l.Get([]byte(k), MaxSeq)
		if v == nil || string(v.Value) != want {
			t.Errorf("Get(%q) = %+v want %q", k, v, want)
		}
	}
	if v := l.Get([]byte("zz"), MaxSeq); v != nil {
		t.Errorf("Get of missing key returned %+v", v)
	}
	if l.Len() != 3 {
		t.Errorf("Len = %d, want 3", l.Len())
	}
}

func TestSetCopiesNewKeyOnly(t *testing.T) {
	l := New(1)
	k := []byte("mutable")
	l.Set(k, []byte("v"), 1, false, 0)
	k[0] = 'X'
	if l.Get([]byte("mutable"), MaxSeq) == nil {
		t.Errorf("list aliased the caller's key buffer")
	}
}

func TestOverwriteKeepsLenAndAdjustsBytes(t *testing.T) {
	l := New(1)
	put(l, "k", "short", 1)
	if want := len("k") + versionOverhead + len("short"); l.SizeBytes() != want {
		t.Errorf("SizeBytes = %d, want %d", l.SizeBytes(), want)
	}
	before := l.SizeBytes()
	put(l, "k", "much longer value", 2)
	if l.Len() != 1 {
		t.Errorf("Len after overwrite = %d, want 1", l.Len())
	}
	wantDelta := len("much longer value") - len("short")
	if got := l.SizeBytes() - before; got != wantDelta {
		t.Errorf("SizeBytes delta = %d, want %d", got, wantDelta)
	}
	if v := l.Get([]byte("k"), MaxSeq); string(v.Value) != "much longer value" || v.prev != nil {
		t.Errorf("overwritten version = %+v", v)
	}
}

// TestBoundSelectsVersion pins the read contract: under a bound a key
// shows its newest version at or below it, keys written only above it do
// not exist, and a tombstone is a version like any other.
func TestBoundSelectsVersion(t *testing.T) {
	l := New(1)
	l.Set([]byte("a"), []byte("a1"), 1, false, MaxSeq)
	l.Set([]byte("b"), []byte("b2"), 2, false, MaxSeq)
	l.Set([]byte("a"), []byte("a3"), 3, false, MaxSeq)
	l.Set([]byte("c"), []byte("c4"), 4, false, MaxSeq)
	l.Set([]byte("b"), nil, 5, true, MaxSeq)
	l.Set([]byte("a"), []byte("a6"), 6, false, MaxSeq)

	type kv struct{ k, v string }
	want := map[uint64][]kv{
		0:      nil,
		1:      {{"a", "a1"}},
		2:      {{"a", "a1"}, {"b", "b2"}},
		3:      {{"a", "a3"}, {"b", "b2"}},
		4:      {{"a", "a3"}, {"b", "b2"}, {"c", "c4"}},
		5:      {{"a", "a3"}, {"b", "<deleted>"}, {"c", "c4"}},
		MaxSeq: {{"a", "a6"}, {"b", "<deleted>"}, {"c", "c4"}},
	}
	show := func(v *Version) string {
		if v.Tombstone {
			return "<deleted>"
		}
		return string(v.Value)
	}
	for bound, w := range want {
		var got []kv
		for it := l.Seek(nil, bound); it.Valid(); it.Next() {
			got = append(got, kv{string(it.Key()), show(it.Version())})
		}
		if fmt.Sprint(got) != fmt.Sprint(w) {
			t.Errorf("bound %d: iterated %v, want %v", bound, got, w)
		}
		for _, k := range []string{"a", "b", "c"} {
			wantV := ""
			for _, e := range w {
				if e.k == k {
					wantV = e.v
				}
			}
			gotV := ""
			if v := l.Get([]byte(k), bound); v != nil {
				gotV = show(v)
			}
			if gotV != wantV {
				t.Errorf("bound %d: Get(%q) = %q, want %q", bound, k, gotV, wantV)
			}
		}
	}
	if it := l.Seek([]byte("b"), 1); it.Valid() {
		t.Errorf("Seek(b) under bound 1 landed on %q; nothing at or after b existed then", it.Key())
	}
}

// TestRetentionAccounting: a retained version stays charged to SizeBytes
// and a non-retaining overwrite releases the whole chain.
func TestRetentionAccounting(t *testing.T) {
	l := New(1)
	per := versionOverhead + len("vvvv")
	put(l, "k", "vvvv", 1)
	base := l.SizeBytes()
	for i := 0; i < 10; i++ {
		l.Set([]byte("k"), []byte("vvvv"), uint64(2+i), false, MaxSeq)
	}
	if got := l.SizeBytes(); got != base+10*per {
		t.Errorf("SizeBytes with 10 retained = %d, want %d", got, base+10*per)
	}
	if v := l.Get([]byte("k"), 1); v == nil || v.Seq != 1 {
		t.Errorf("oldest retained version unreachable: %+v", v)
	}
	put(l, "k", "vvvv", 100)
	if got := l.SizeBytes(); got != base {
		t.Errorf("SizeBytes after dropping the chain = %d, want %d", got, base)
	}
	if v := l.Get([]byte("k"), 99); v != nil {
		t.Errorf("dropped version still reachable: %+v", v)
	}
}

func TestIterationSorted(t *testing.T) {
	l := New(7)
	r := rand.New(rand.NewSource(2))
	want := map[string]bool{}
	for i := 0; i < 500; i++ {
		k := fmt.Sprintf("key-%06d", r.Intn(100000))
		want[k] = true
		put(l, k, "v", uint64(i+1))
	}
	var keys []string
	for it := l.Seek(nil, MaxSeq); it.Valid(); it.Next() {
		keys = append(keys, string(it.Key()))
	}
	if len(keys) != len(want) {
		t.Fatalf("iterated %d keys, want %d", len(keys), len(want))
	}
	if !sort.StringsAreSorted(keys) {
		t.Errorf("iteration out of order")
	}
	for _, k := range keys {
		if !want[k] {
			t.Errorf("unexpected key %q", k)
		}
	}
}

func TestSeek(t *testing.T) {
	l := New(3)
	for i, k := range []string{"apple", "banana", "cherry", "fig"} {
		put(l, k, k, uint64(i+1))
	}
	cases := []struct {
		seek, want string
	}{
		{"a", "apple"},
		{"apple", "apple"},
		{"b", "banana"},
		{"cz", "fig"},
		{"fig", "fig"},
	}
	for _, c := range cases {
		it := l.Seek([]byte(c.seek), MaxSeq)
		if !it.Valid() || string(it.Key()) != c.want {
			t.Errorf("Seek(%q) at %q, want %q", c.seek, it.Key(), c.want)
		}
	}
	if it := l.Seek([]byte("zzz"), MaxSeq); it.Valid() {
		t.Errorf("Seek past end should be invalid")
	}
}

func TestEmptyListIterator(t *testing.T) {
	l := New(1)
	if it := l.Seek(nil, MaxSeq); it.Valid() {
		t.Errorf("iterator over empty list should be invalid")
	}
}

func TestQuickMatchesReferenceMap(t *testing.T) {
	f := func(ops []struct {
		Key byte
		Val uint16
	}) bool {
		l := New(11)
		ref := map[string]string{}
		for i, op := range ops {
			k := []byte{op.Key}
			v := []byte(fmt.Sprint(op.Val))
			l.Set(k, v, uint64(i+1), false, 0)
			ref[string(k)] = string(v)
		}
		if l.Len() != len(ref) {
			return false
		}
		for k, v := range ref {
			got := l.Get([]byte(k), MaxSeq)
			if got == nil || string(got.Value) != v {
				return false
			}
		}
		// Iteration must be sorted and complete.
		prev := []byte(nil)
		n := 0
		for it := l.Seek(nil, MaxSeq); it.Valid(); it.Next() {
			if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
				return false
			}
			prev = append([]byte(nil), it.Key()...)
			n++
		}
		return n == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestStressReadersNeverMissPresentKey is the regression test for the lookup
// that re-loaded the level-0 successor after comparing it: a writer
// linking a smaller key in between made a lock-free Get or Seek land on
// that key and report the target — present all along — as absent. One
// writer inserts ascending keys, each of which lands directly before the
// target, while readers look the target up. Run under -race, ten times:
// this race failed the engine's view stress test about one run in eight,
// and single runs let it survive several changes.
func TestStressReadersNeverMissPresentKey(t *testing.T) {
	l := New(1)
	target := []byte("zzz")
	put(l, "zzz", "present", 1)

	const inserts = 50000
	var (
		done   atomic.Bool
		missed atomic.Int64
		wg     sync.WaitGroup
	)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				if l.Get(target, MaxSeq) == nil {
					missed.Add(1)
				}
				if it := l.Seek(target, MaxSeq); !it.Valid() || !bytes.Equal(it.Key(), target) {
					missed.Add(1)
				}
			}
		}()
	}
	for i := 0; i < inserts && missed.Load() == 0; i++ {
		put(l, fmt.Sprintf("k%08d", i), "v", uint64(i+2))
	}
	done.Store(true)
	wg.Wait()
	if n := missed.Load(); n != 0 {
		t.Fatalf("%d lookups missed a key that was present throughout", n)
	}
}

func BenchmarkSet(b *testing.B) {
	l := New(1)
	keys := make([][]byte, b.N)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%010d", i*2654435761%1000000007))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Set(keys[i], keys[i], uint64(i+1), false, 0)
	}
}

func BenchmarkGet(b *testing.B) {
	l := New(1)
	const n = 100000
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%010d", i)
		put(l, k, k, uint64(i+1))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := []byte(fmt.Sprintf("key-%010d", i%n))
		if l.Get(k, MaxSeq) == nil {
			b.Fatal("missing key")
		}
	}
}
