package iterator

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func e(key string, seq uint64) Entry {
	return Entry{Key: []byte(key), Value: []byte("v:" + key), Seq: seq}
}

func tomb(key string, seq uint64) Entry {
	return Entry{Key: []byte(key), Seq: seq, Tombstone: true}
}

func keysOf(entries []Entry) []string {
	out := make([]string, len(entries))
	for i, en := range entries {
		out[i] = string(en.Key)
	}
	return out
}

// SliceIterator is the tests' source: an in-memory slice of entries already
// sorted by (Key asc, Seq desc).
type SliceIterator struct {
	entries []Entry
	pos     int
}

func NewSlice(entries []Entry) *SliceIterator { return &SliceIterator{entries: entries} }

func (it *SliceIterator) Valid() bool  { return it.pos < len(it.entries) }
func (it *SliceIterator) Entry() Entry { return it.entries[it.pos] }
func (it *SliceIterator) Next()        { it.pos++ }

func TestSliceIterator(t *testing.T) {
	it := NewSlice([]Entry{e("a", 1), e("b", 2)})
	if !it.Valid() || string(it.Entry().Key) != "a" {
		t.Fatalf("first entry wrong")
	}
	it.Next()
	if !it.Valid() || string(it.Entry().Key) != "b" {
		t.Fatalf("second entry wrong")
	}
	it.Next()
	if it.Valid() {
		t.Fatalf("exhausted iterator still valid")
	}
	if empty := NewSlice(nil); empty.Valid() {
		t.Fatalf("empty iterator should be invalid")
	}
}

func TestMergingInterleaves(t *testing.T) {
	a := NewSlice([]Entry{e("a", 1), e("d", 1), e("f", 1)})
	b := NewSlice([]Entry{e("b", 2), e("e", 2)})
	c := NewSlice([]Entry{e("c", 3)})
	got := keysOf(Drain(NewMerging(a, b, c)))
	want := []string{"a", "b", "c", "d", "e", "f"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("merged keys = %v, want %v", got, want)
	}
}

func TestMergingTieBreakPrefersEarlierChild(t *testing.T) {
	newer := NewSlice([]Entry{e("k", 9)})
	older := NewSlice([]Entry{e("k", 1)})
	got := Drain(NewMerging(newer, older))
	if len(got) != 2 {
		t.Fatalf("expected both versions, got %d", len(got))
	}
	if got[0].Seq != 9 || got[1].Seq != 1 {
		t.Errorf("tie-break order wrong: seqs %d,%d", got[0].Seq, got[1].Seq)
	}
}

func TestMergingEmptyChildren(t *testing.T) {
	if m := NewMerging(); m.Valid() {
		t.Errorf("merging over no children should be invalid")
	}
	m := NewMerging(NewSlice(nil), NewSlice([]Entry{e("x", 1)}), NewSlice(nil))
	got := keysOf(Drain(m))
	if len(got) != 1 || got[0] != "x" {
		t.Errorf("got %v", got)
	}
}

func TestDedupKeepsNewest(t *testing.T) {
	newer := NewSlice([]Entry{e("a", 5), e("b", 5)})
	older := NewSlice([]Entry{e("a", 1), e("c", 1)})
	d := NewDedup(NewMerging(newer, older), nil)
	got := Drain(d)
	if len(got) != 3 {
		t.Fatalf("got %d entries, want 3", len(got))
	}
	if got[0].Seq != 5 {
		t.Errorf("kept old version of a (seq %d)", got[0].Seq)
	}
}

func TestDedupTombstones(t *testing.T) {
	newer := NewSlice([]Entry{tomb("a", 5)})
	older := NewSlice([]Entry{e("a", 1), e("b", 1)})
	// Major compaction: tombstone and all shadowed versions vanish.
	drop := Drain(NewDedup(NewMerging(newer, older), IsTombstone))
	if got := keysOf(drop); fmt.Sprint(got) != "[b]" {
		t.Errorf("drop-tombstones keys = %v, want [b]", got)
	}
	// Minor compaction: tombstone survives to shadow older tables.
	keep := Drain(NewDedup(NewMerging(NewSlice([]Entry{tomb("a", 5)}), NewSlice([]Entry{e("a", 1), e("b", 1)})), nil))
	if len(keep) != 2 || !keep[0].Tombstone {
		t.Errorf("keep-tombstones = %+v", keep)
	}
}

func TestDedupTombstoneShadowsAcrossAdvance(t *testing.T) {
	// Tombstone for "a" then live "a" then live "b": dropping tombstones
	// must also drop the shadowed live "a".
	src := NewSlice([]Entry{tomb("a", 9), e("a", 3), e("b", 1)})
	got := keysOf(Drain(NewDedup(src, IsTombstone)))
	if fmt.Sprint(got) != "[b]" {
		t.Errorf("got %v, want [b]", got)
	}
}

func TestQuickMergingMatchesSort(t *testing.T) {
	f := func(seed int64, nSrc uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nSrc%5) + 1
		var its []Iterator
		var all []string
		for s := 0; s < n; s++ {
			var entries []Entry
			k := 0
			for i := 0; i < r.Intn(20); i++ {
				k += 1 + r.Intn(5)
				key := fmt.Sprintf("%04d", k)
				entries = append(entries, e(key, uint64(s)))
				all = append(all, key)
			}
			its = append(its, NewSlice(entries))
		}
		got := keysOf(Drain(NewMerging(its...)))
		sort.Strings(all)
		return fmt.Sprint(got) == fmt.Sprint(all)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickDedupYieldsDistinctSortedKeys(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var its []Iterator
		for s := 0; s < 4; s++ {
			var entries []Entry
			k := 0
			for i := 0; i < r.Intn(15); i++ {
				k += 1 + r.Intn(3) // overlapping ranges across sources
				entries = append(entries, e(fmt.Sprintf("%04d", k), uint64(10-s)))
			}
			its = append(its, NewSlice(entries))
		}
		got := Drain(NewDedup(NewMerging(its...), nil))
		for i := 1; i < len(got); i++ {
			if bytes.Compare(got[i-1].Key, got[i].Key) >= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkMerging8Way(b *testing.B) {
	const perSrc = 1000
	mk := func(off int) []Entry {
		entries := make([]Entry, perSrc)
		for i := range entries {
			entries[i] = e(fmt.Sprintf("%08d", i*8+off), uint64(off))
		}
		return entries
	}
	sources := make([][]Entry, 8)
	for s := range sources {
		sources[s] = mk(s)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		its := make([]Iterator, 8)
		for s := range its {
			its[s] = NewSlice(sources[s])
		}
		m := NewMerging(its...)
		n := 0
		for ; m.Valid(); m.Next() {
			n++
		}
		if n != perSrc*8 {
			b.Fatalf("merged %d", n)
		}
	}
}
