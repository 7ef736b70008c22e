package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/recycle"
	"repro/internal/skiplist"
)

// liveHeap is the heap still reachable after a collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestAllocOverwriteMemoryBounded: versions are allocated one by one and not
// from the memtable's slabs, so a superseded version nobody can read goes
// back to the collector. A key overwritten a million times with no reader
// registered leaves the live heap where a thousand overwrites left it
// (slab-held values would hold 10^6 × 160 B while SizeBytes reported one
// version). What readers keep, SizeBytes charges, and the heap gives it back
// once they are gone.
func TestAllocOverwriteMemoryBounded(t *testing.T) {
	m := New(1)
	key, val := []byte("hot"), bytes.Repeat([]byte("v"), 100)
	one := len(key) + 9 + len(val)
	seq := uint64(0)
	overwrite := func(n int) {
		for i := 0; i < n; i++ {
			seq++
			m.Put(key, val, seq)
		}
	}
	overwrite(1000)
	base := liveHeap()
	overwrite(1000000)
	after := liveHeap()
	if m.SizeBytes() != one {
		t.Fatalf("SizeBytes after 10^6 overwrites = %d, want %d", m.SizeBytes(), one)
	}
	if after > base+64<<10 {
		t.Fatalf("live heap grew by %d bytes over 10^6 overwrites with no reader", after-base)
	}

	// A registration between every two writes makes each superseded
	// version some reader's: all are kept and all are charged.
	const pinned = 10000
	for i := 0; i < pinned; i++ {
		m.Pin()
		overwrite(1)
	}
	if got, want := m.SizeBytes(), one+pinned*(9+len(val)); got != want {
		t.Fatalf("with %d readers pinned: SizeBytes = %d, want %d", pinned, got, want)
	}
	if grew := liveHeap() - base; grew < pinned*uint64(len(val)) {
		t.Fatalf("with %d readers pinned the heap grew by only %d bytes: their versions were not kept", pinned, grew)
	}
	for i := 0; i < pinned; i++ {
		m.Unpin()
	}
	overwrite(1)
	if m.SizeBytes() != one {
		t.Fatalf("readers gone: SizeBytes = %d, want %d", m.SizeBytes(), one)
	}
	if after := liveHeap(); after > base+64<<10 {
		t.Fatalf("readers gone: live heap still %d bytes above where it started", after-base)
	}
}

// The reader stress writes a memtable's keys 0..n-1 in a fixed shuffled
// order, round after round, so the write at seq s (from 1) is of the key at
// position (s-1) % n of that order, and what a bound b shows of a key
// follows from b alone.

// stressKey is key k: six digits, then a tail whose length varies with k,
// so key copies fill the key slabs unevenly.
func stressKey(k int) []byte {
	return []byte(fmt.Sprintf("%06d%s", k, strings.Repeat("k", k%37)))
}

// stressWrite is what seq writes to key k. The value names both, runs on in
// bytes derived from them, and its length walks every inline size and past
// the largest. Every fifth value is empty and every seventh write a
// tombstone, so an empty value must not read as a deletion or vice versa.
func stressWrite(k int, seq uint64) (value []byte, tombstone bool) {
	if seq%7 == 0 {
		return nil, true
	}
	n := int((seq*37 + uint64(k)) % 301)
	if seq%5 == 0 {
		n = 0
	}
	v := []byte(fmt.Sprintf("%06d@%d|", k, seq))
	for i := 0; len(v) < n; i++ {
		v = append(v, byte('a'+(int(seq)+i)%26))
	}
	return v[:n], false
}

// stressOrder is the shuffled write order and its inverse.
type stressOrder struct{ key, pos []int }

func newStressOrder(n int, seed int64) stressOrder {
	o := stressOrder{key: rand.New(rand.NewSource(seed)).Perm(n), pos: make([]int, n)}
	for p, k := range o.key {
		o.pos[k] = p
	}
	return o
}

// at returns the seq of the newest write of key k at or below bound, or 0.
func (o stressOrder) at(k int, bound uint64) uint64 {
	first := uint64(o.pos[k]) + 1
	if bound < first {
		return 0
	}
	n := uint64(len(o.key))
	return first + (bound-first)/n*n
}

// check compares what a read returned for key k with the write at seq
// (0: the key must be absent), byte for byte.
func (o stressOrder) check(k int, seq uint64, got []byte, gotTomb, ok bool) error {
	if seq == 0 {
		if ok {
			return fmt.Errorf("key %d present (%.24q…) before its first write", k, got)
		}
		return nil
	}
	want, tomb := stressWrite(k, seq)
	if !ok || gotTomb != tomb || !bytes.Equal(got, want) {
		return fmt.Errorf("key %d: read %.24q… (tombstone %v, present %v), want seq %d: %.24q… (tombstone %v)", k, got, gotTomb, ok, seq, want, tomb)
	}
	return nil
}

// read checks, under bound: a point read of key k, a live one, and an
// iteration of up to window entries from k on.
func (o stressOrder) read(m *Table, keys [][]byte, k int, bound uint64, window int) error {
	e, ok := m.GetAt(keys[k], bound)
	if err := o.check(k, o.at(k, bound), e.Value, e.Tombstone, ok); err != nil {
		return fmt.Errorf("GetAt under bound %d: %w", bound, err)
	}
	floor := o.at(k, bound)
	switch e, ok = m.Get(keys[k]); {
	case !ok && floor != 0:
		return fmt.Errorf("live Get misses key %d, written at seq %d", k, floor)
	case ok && (e.Seq < floor || o.key[(e.Seq-1)%uint64(len(o.key))] != k):
		return fmt.Errorf("live Get of key %d: seq %d, bound %d shows seq %d", k, e.Seq, bound, floor)
	case ok:
		if err := o.check(k, e.Seq, e.Value, e.Tombstone, true); err != nil {
			return fmt.Errorf("live Get: %w", err)
		}
	}
	next, n := k, 0
	for it := m.IterAt(keys[k], bound); it.Valid() && n < window; it.Next() {
		e := it.Entry()
		var at int
		if _, err := fmt.Sscanf(string(e.Key[:6]), "%d", &at); err != nil || at < next || at >= len(o.key) || !bytes.Equal(e.Key, keys[at]) {
			return fmt.Errorf("iterator under bound %d yields key %q after key %d", bound, e.Key, next-1)
		}
		for ; next < at; next++ {
			if s := o.at(next, bound); s != 0 {
				return fmt.Errorf("iterator under bound %d skipped key %d (seq %d)", bound, next, s)
			}
		}
		if err := o.check(at, o.at(at, bound), e.Value, e.Tombstone, true); err != nil {
			return fmt.Errorf("iterator under bound %d: %w", bound, err)
		}
		next, n = at+1, n+1
	}
	return nil
}

// TestStressReadersOverSlabsAndInlineVersions races lock-free readers against a
// writer that fills memtable after memtable: two of 3000 keys, crossing
// node and key slab boundaries all the way, and between them one of 16 hot
// keys, each overwritten every few microseconds. Readers pin a bound as the
// engine does (with the writer excluded) and hold it while the writer runs
// on: under the bound every point read and every iterated entry must be
// exactly the write the bound shows, with no key skipped; a live read must
// be some write of its key no older than the bound's. Each value is checked
// byte for byte against the key and sequence it was written with, so a
// superseded version whose inline value were rewritten in place, or a key
// slab handed out twice, fails here. Run under -race.
func TestStressReadersOverSlabsAndInlineVersions(t *testing.T) {
	const writes, window = 12000, 40
	type memtable struct {
		m     *Table
		order stressOrder
	}
	keys := make([][]byte, 3000)
	for k := range keys {
		keys[k] = stressKey(k)
	}
	var (
		mu      sync.RWMutex // the engine's apply lock: Pin runs with writers excluded
		current atomic.Pointer[memtable]
		done    atomic.Bool
		reads   atomic.Int64
		wg      sync.WaitGroup
	)
	failed := func(err error) {
		t.Error(err)
		done.Store(true)
	}
	reader := func(seed int64) {
		defer wg.Done()
		r := rand.New(rand.NewSource(seed))
		for !done.Load() {
			mt := current.Load()
			mu.RLock()
			bound := mt.m.Pin()
			mu.RUnlock()
			for pass := 0; pass < 3 && !done.Load(); pass++ {
				if err := mt.order.read(mt.m, keys, r.Intn(len(mt.order.key)), bound, window); err != nil {
					failed(err)
				}
				reads.Add(1)
				runtime.Gosched()
			}
			mt.m.Unpin()
		}
	}

	for tbl, n := range []int{3000, 16, 3000} {
		mt := &memtable{m: New(int64(tbl + 1)), order: newStressOrder(n, int64(tbl+1))}
		current.Store(mt)
		if tbl == 0 {
			for r := int64(0); r < 3; r++ {
				wg.Add(1)
				go reader(r)
			}
		}
		for seq := uint64(1); seq <= writes && !done.Load(); seq++ {
			k := mt.order.key[(seq-1)%uint64(n)]
			value, tomb := stressWrite(k, seq)
			mu.Lock()
			if tomb {
				mt.m.Delete(keys[k], seq)
			} else {
				mt.m.Put(keys[k], value, seq)
			}
			mu.Unlock()
		}
		if !done.Load() && mt.m.Len() != n {
			t.Fatalf("memtable %d holds %d keys, want %d", tbl, mt.m.Len(), n)
		}
	}
	done.Store(true)
	wg.Wait()
	t.Logf("%d checked reads", reads.Load())
}

// TestAllocRotationRecyclesSlabs is the engine's rotation with no reader: a
// memtable fills while the one before it, frozen, is flushed and released.
// From the third memtable on, each carves from the slabs of the one two
// before it, so filling one allocates a version per write and the Table
// itself — no node, tower or key slab, and no skiplist. What a released
// memtable handed out is gone with it: its keys read as poison.
func TestAllocRotationRecyclesSlabs(t *testing.T) {
	recycle.Poison.Store(true)
	defer recycle.Poison.Store(false)
	const keys = 2500 // ten node slabs, about 3.3 of 4 tower slabs, ten key slabs
	var free skiplist.FreeList
	ks := make([][]byte, keys)
	for i := range ks {
		ks[i] = []byte(fmt.Sprintf("key-%012d", i))
	}
	val := bytes.Repeat([]byte("v"), 100)
	var imm *Table
	seq := uint64(0)
	// A collection during a rotation would count objects of its own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for r := 0; r < 20; r++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := NewFrom(&free, int64(r))
		for _, k := range ks {
			seq++
			m.Put(k, val, seq)
		}
		var held []byte
		if imm != nil {
			it := imm.Iter()
			held = it.Entry().Key
			imm.Release() // flushed
		}
		runtime.ReadMemStats(&after)
		if objects := after.Mallocs - before.Mallocs; r >= 2 && objects != keys+1 {
			t.Errorf("memtable %d: %d objects for %d writes, want a version per write and the Table", r, objects, keys)
		}
		if held != nil && !bytes.Equal(held, bytes.Repeat([]byte{0xdb}, len(held))) {
			t.Fatalf("memtable %d: a key of its released predecessor still reads %q", r, held)
		}
		imm = m
	}
}
