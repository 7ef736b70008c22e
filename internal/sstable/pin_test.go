package sstable

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/iterator"
)

// churn keeps missing in c from a table of its own until stop closes, so
// every array that reaches c's free list is refilled (and, with
// cache.PoisonFreed set, was overwritten first) almost at once.
func churn(t *testing.T, c Cache, stop <-chan struct{}) *sync.WaitGroup {
	t.Helper()
	var other []iterator.Entry
	for i := 0; i < 400; i++ {
		other = append(other, entry(fmt.Sprintf("other-%06d", i), fmt.Sprintf("filler-%032d", i), uint64(i+1)))
	}
	rd := buildTableOpts(t, other, WriterOptions{BlockSize: 256})
	rd.SetBlockCache(c)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := rd.Get(other[(i*37)%len(other)].Key); err != nil {
				t.Errorf("churn Get: %v", err)
				return
			}
		}
	}()
	return &wg
}

func cloneEntry(e iterator.Entry) iterator.Entry {
	e.Key = append([]byte(nil), e.Key...)
	e.Value = append([]byte(nil), e.Value...)
	return e
}

func sameEntry(a, b iterator.Entry) bool {
	return bytes.Equal(a.Key, b.Key) && bytes.Equal(a.Value, b.Value) && a.Seq == b.Seq && a.Tombstone == b.Tombstone
}

// TestStressEntryValidAcrossOneNext is the iterator validity rule: an Entry
// read just before a Next is byte-identical after it, block boundary or not,
// while another reader churns the two-block cache both share and freed arrays
// are poisoned. Run under -race.
func TestStressEntryValidAcrossOneNext(t *testing.T) {
	cache.PoisonFreed.Store(true)
	defer cache.PoisonFreed.Store(false)
	var entries []iterator.Entry
	for i := 0; i < 600; i++ {
		entries = append(entries, entry(fmt.Sprintf("key-%06d", i), fmt.Sprintf("value-%024d", i), uint64(i+1)))
	}
	// ~5 entries per block: a boundary every few Nexts.
	rd := buildTableOpts(t, entries, WriterOptions{BlockSize: 256})
	c := cache.New(600)
	rd.SetBlockCache(c)
	stop := make(chan struct{})
	wg := churn(t, c, stop)

	for pass := 0; pass < 20; pass++ {
		it := rd.IterFrom(entries[pass].Key)
		for i := pass; it.Valid(); i++ {
			held := it.Entry()
			want := cloneEntry(held)
			if !sameEntry(want, entries[i]) {
				t.Fatalf("entry %d = %q/%q", i, want.Key, want.Value)
			}
			it.Next()
			if !sameEntry(held, want) {
				t.Fatalf("entry %d changed across one Next: %q/%q, was %q/%q",
					i, held.Key, held.Value, want.Key, want.Value)
			}
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		it.Close()
	}
	close(stop)
	wg.Wait()
	if _, misses, _ := c.Stats(); misses < 1000 {
		t.Fatalf("only %d misses; the cache was not churning", misses)
	}
}

// TestStressMergeDedupOverRecycledBlocks: Dedup(Merging(...)) over tables whose
// duplicate keys straddle block boundaries reads what it always did —
// newest version per key, tombstones dropped — when the tables share a
// two-block cache that recycles every array behind the iterators.
func TestStressMergeDedupOverRecycledBlocks(t *testing.T) {
	cache.PoisonFreed.Store(true)
	defer cache.PoisonFreed.Store(false)
	const tables, keys = 4, 500
	newest := map[string]iterator.Entry{}
	c := cache.New(600)
	stop := make(chan struct{})
	wg := churn(t, c, stop)
	var children []iterator.Iterator
	for tb := 0; tb < tables; tb++ {
		var entries []iterator.Entry
		for i := 0; i < keys; i++ {
			if (i*7+tb*3)%5 < 2 { // each table holds a different ~3/5 of the keys
				continue
			}
			// Value lengths differ per table, so the same key sits at a
			// different place in its block in each of them.
			e := entry(fmt.Sprintf("key-%06d", i), fmt.Sprintf("t%d-%0*d", tb, 8+5*tb, i), uint64(1+i%7*tables+tb))
			if (i+tb)%11 == 0 {
				e.Tombstone, e.Value = true, nil
			}
			entries = append(entries, e)
			if old, ok := newest[string(e.Key)]; !ok || e.Seq > old.Seq {
				newest[string(e.Key)] = e
			}
		}
		rd := buildTableOpts(t, entries, WriterOptions{BlockSize: 200})
		rd.SetBlockCache(c)
		it := rd.Iter()
		defer it.Close()
		children = append(children, it)
	}
	var want []iterator.Entry
	for _, e := range newest {
		if !e.Tombstone {
			want = append(want, e)
		}
	}
	sort.Slice(want, func(i, j int) bool { return bytes.Compare(want[i].Key, want[j].Key) < 0 })

	got := iterator.Drain(iterator.NewDedup(iterator.NewMerging(children...), iterator.IsTombstone))
	close(stop)
	wg.Wait()
	if len(got) != len(want) {
		t.Fatalf("merged %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if !sameEntry(got[i], want[i]) {
			t.Fatalf("entry %d = %q/%q@%d, want %q/%q@%d", i,
				got[i].Key, got[i].Value, got[i].Seq, want[i].Key, want[i].Value, want[i].Seq)
		}
	}
	for _, ch := range children {
		if err := ch.(*Iter).Err(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStressRebuiltKeysLiveTwoBlocks is the validity rule for keys an iterator
// rebuilds from their prefix-compressed form: such a key stays intact while
// its block is the current one or the one before — so across one Next,
// block boundary or not — and when the iterator enters the block after
// next, the arena it lies in is reused: under cache.PoisonFreed it then
// reads as poison. An iterator with one arena, emptied at every block,
// would break the first half; one that never reuses an arena, the second.
func TestStressRebuiltKeysLiveTwoBlocks(t *testing.T) {
	cache.PoisonFreed.Store(true)
	defer cache.PoisonFreed.Store(false)
	var entries []iterator.Entry
	for i := 0; i < 600; i++ {
		entries = append(entries, entry(fmt.Sprintf("key-%06d", i), fmt.Sprintf("value-%024d", i), uint64(i+1)))
	}
	// ~5 entries per block: each block's first key is stored whole, the rest
	// are rebuilt.
	rd := buildTableOpts(t, entries, WriterOptions{BlockSize: 256})
	for _, scan := range []bool{false, true} {
		it := rd.Iter()
		if scan {
			it = rd.ScanIter()
		}
		type held struct {
			key, want []byte
			block     int
		}
		var keys []held
		block, poisoned := 0, 0
		var base *byte
		for i := 0; it.Valid(); i++ {
			first := &it.v3.pb.data[0] != base
			if first {
				base, block = &it.v3.pb.data[0], block+1
			}
			e := it.Entry()
			if !bytes.Equal(e.Key, entries[i].Key) {
				t.Fatalf("scan=%v: entry %d has key %q, want %q", scan, i, e.Key, entries[i].Key)
			}
			if !first {
				keys = append(keys, held{e.Key, append([]byte(nil), e.Key...), block})
			}
			kept := keys[:0]
			for _, k := range keys {
				switch {
				case k.block >= block-1:
					if !bytes.Equal(k.key, k.want) {
						t.Fatalf("scan=%v: key %q of block %d reads %q in block %d", scan, k.want, k.block, k.key, block)
					}
					kept = append(kept, k)
				case bytes.Equal(k.key, bytes.Repeat([]byte{0xdb}, len(k.key))):
					poisoned++
				default:
					t.Fatalf("scan=%v: key %q of block %d reads %q in block %d: its arena was not reused", scan, k.want, k.block, k.key, block)
				}
			}
			keys = kept
			it.Next()
		}
		if err := it.Err(); err != nil {
			t.Fatal(err)
		}
		it.Close()
		if block < 80 || poisoned < 300 {
			t.Fatalf("scan=%v: %d blocks, %d keys seen reused; the test proved little", scan, block, poisoned)
		}
	}
}

// mallocs reports the heap objects one call of fn allocates, fn warmed up
// first, with collections held off so pooled iterators stay pooled.
func mallocs(fn func()) uint64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestAllocScanAndMergeRecycleArenas: a ScanIter, and a merge through MergeTo,
// over a table of more than a thousand blocks rebuild every block's keys in
// one of two arenas, so they allocate no more arena chunks than over ten
// blocks — at most two more objects all told. (A merge's Writer allocates
// per block of its output; that share is measured by writing the same
// entries directly and taken out.)
func TestAllocScanAndMergeRecycleArenas(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled iterators are dropped at random under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	opts := WriterOptions{BlockSize: 256}
	table := func(n int) ([]iterator.Entry, *Reader) {
		var entries []iterator.Entry
		for i := 0; i < n; i++ {
			entries = append(entries, entry(fmt.Sprintf("key-%08d", i), fmt.Sprintf("value-%016d", i), uint64(i+1)))
		}
		return entries, buildTableOpts(t, entries, opts)
	}
	scan := func(rd *Reader) func() {
		return func() {
			it := rd.ScanIter()
			for it.Valid() {
				it.Next()
			}
			it.Close()
		}
	}
	merge := func(rd *Reader) func() {
		return func() {
			if _, err := MergeTo(NewWriterOpts(io.Discard, MergeEntries(rd), opts), nil, rd); err != nil {
				t.Fatal(err)
			}
		}
	}
	write := func(entries []iterator.Entry) func() {
		return func() {
			w := NewWriterOpts(io.Discard, len(entries), opts)
			for _, e := range entries {
				if err := w.Add(e); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.Finish(); err != nil {
				t.Fatal(err)
			}
		}
	}
	smallEntries, small := table(80)
	largeEntries, large := table(10000)
	mergeCost := func(entries []iterator.Entry, rd *Reader) int64 {
		return int64(mallocs(merge(rd))) - int64(mallocs(write(entries)))
	}
	ns, nl := len(allHandles(t, small)), len(allHandles(t, large))
	if nl < 1000 {
		t.Fatalf("the large table has %d blocks, want at least 1000", nl)
	}
	a, b := mallocs(scan(small)), mallocs(scan(large))
	c, d := mergeCost(smallEntries, small), mergeCost(largeEntries, large)
	t.Logf("over %d and %d blocks: ScanIter %d and %d objects, MergeTo beyond its Writer %d and %d", ns, nl, a, b, c, d)
	if b > a+2 || d > c+2 {
		t.Error("a long scan or merge allocates more than its two arena chunks")
	}
}

// TestAllocIterSizeClass pins the pooled iterator to the 320-byte allocation
// size class, so a field added to it must be paid for rather than grow it
// into the next class silently.
func TestAllocIterSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(Iter{}); size > 320 {
		t.Errorf("sstable.Iter is %d bytes, past the 320-byte size class", size)
	}
}
