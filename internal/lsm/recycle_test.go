package lsm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/iterator"
	"repro/internal/recycle"
)

// rangeModel checks a scan of [lo, hi) entry by entry against what the
// writer had acknowledged before the scan began: keys ascend inside the
// range, every value is its key's (residencyValue) at a generation no older
// than the model's, and no key the model holds is skipped.
type rangeModel struct {
	lo, hi, next int
	at           []int64 // generation each key had reached; 0: not yet written
}

func (m *rangeModel) entry(e iterator.Entry) error {
	var i, gen int
	if _, err := fmt.Sscanf(string(e.Key), "key-%d", &i); err != nil || i < m.next || i >= m.hi {
		return fmt.Errorf("[%d,%d): key %q after key %d", m.lo, m.hi, e.Key, m.next-1)
	}
	if err := m.skipTo(i); err != nil {
		return err
	}
	m.next = i + 1
	if _, err := fmt.Sscanf(string(e.Value), "%08d-%04d-", &i, &gen); err != nil ||
		!bytes.Equal(e.Key, scanKey(i)) || !bytes.Equal(e.Value, residencyValue(i, gen)) || int64(gen) < m.at[i-m.lo] {
		return fmt.Errorf("key %q read %.20q…, want generation >= %d", e.Key, e.Value, m.at[m.next-1-m.lo])
	}
	return nil
}

// skipTo fails if a key the model holds lies below i and was not read.
func (m *rangeModel) skipTo(i int) error {
	for ; m.next < i; m.next++ {
		if m.at[m.next-m.lo] > 0 {
			return fmt.Errorf("[%d,%d): key %d (generation %d) missing", m.lo, m.hi, m.next, m.at[m.next-m.lo])
		}
	}
	return nil
}

// reusedAndPoisoned runs test as two subtests: with recycled objects reused,
// and under recycle.Poison, which resets and drops them instead. An object
// recycled while still in use shows as somebody else's data in the first
// and as a reset object in the second.
func reusedAndPoisoned(t *testing.T, test func(t *testing.T)) {
	for _, poison := range []bool{false, true} {
		t.Run(map[bool]string{false: "reused", true: "poisoned"}[poison], func(t *testing.T) {
			recycle.Poison.Store(poison)
			defer recycle.Poison.Store(false)
			test(t)
		})
	}
}

// TestStressRecycledScan races short scans and snapshot iterators — each
// drawing its merge, table iterators and key arenas from the free lists the
// last one returned them to — against write-triggered flushes, live minor
// compactions and repeated major compactions, once reusing what is
// recycled and once under recycle.Poison. Every entry is checked against the model and
// two iterators over one snapshot are read in lockstep, so an iterator
// recycled while a merge, a scan or its caller still reads it fails a
// comparison here. Run under -race.
func TestStressRecycledScan(t *testing.T) { reusedAndPoisoned(t, stressRecycledScan) }

func stressRecycledScan(t *testing.T) {
	db := openTestDB(t, Options{
		MemtableBytes:   16 << 10,
		BlockCacheBytes: 128 << 10,
		AutoCompact:     mustPolicy(t, "size-tiered", 4),
	})
	const keys, window = 1000, 24
	var latest [keys]atomic.Int64 // generation last acknowledged per key
	var stop atomic.Bool
	var scans, snapshots atomic.Int64
	var wg sync.WaitGroup
	failed := func(err error) {
		t.Error(err)
		stop.Store(true)
	}
	model := func(lo, hi int) *rangeModel {
		m := &rangeModel{lo: lo, hi: hi, next: lo, at: make([]int64, hi-lo)}
		for i := range m.at {
			m.at[i] = latest[lo+i].Load()
		}
		return m
	}

	wg.Add(1)
	go func() { // writer: every key through generations 1..8
		defer wg.Done()
		defer stop.Store(true)
		for gen := 1; gen <= 8 && !stop.Load(); gen++ {
			for i := 0; i < keys; i++ {
				if err := db.PutContext(context.Background(), scanKey(i), residencyValue(i, gen)); err != nil {
					failed(err)
					return
				}
				latest[i].Store(int64(gen))
			}
		}
	}()
	wg.Add(1)
	go func() { // major compactions under the scans
		defer wg.Done()
		for seed := int64(1); !stop.Load(); seed++ {
			if _, err := db.MajorCompact("BT(I)", 2, seed); err != nil {
				failed(err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) { // short scans
			defer wg.Done()
			for n := r; !stop.Load(); n += 13 {
				lo := n * 37 % (keys - window)
				m := model(lo, lo+window)
				it, release, err := db.NewIterator(scanKey(lo), scanKey(lo+window))
				if err != nil {
					failed(err)
					return
				}
				for ; err == nil && it.Valid(); it.Next() {
					err = m.entry(it.Entry())
				}
				if err == nil {
					err = IterErr(it)
				}
				release()
				if err == nil {
					err = m.skipTo(m.hi)
				}
				if err != nil {
					failed(fmt.Errorf("scan: %w", err))
					return
				}
				scans.Add(1)
			}
		}(r)
	}
	wg.Add(1)
	go func() { // snapshots, each read by two iterators in lockstep
		defer wg.Done()
		for !stop.Load() {
			m := model(0, keys)
			sn, err := db.Snapshot()
			if err != nil {
				failed(err)
				return
			}
			a, releaseA, errA := sn.NewIterator(nil, nil)
			b, releaseB, errB := sn.NewIterator(nil, nil)
			sn.Release() // the iterators hold their own references
			if errA != nil || errB != nil {
				failed(fmt.Errorf("snapshot NewIterator: %v, %v", errA, errB))
				return
			}
			for ; err == nil && a.Valid() && b.Valid(); a.Next() {
				ea, eb := a.Entry(), b.Entry()
				if !bytes.Equal(ea.Key, eb.Key) || !bytes.Equal(ea.Value, eb.Value) {
					err = fmt.Errorf("%q=%.20q… beside %q=%.20q…", ea.Key, ea.Value, eb.Key, eb.Value)
				} else {
					err = m.entry(ea)
				}
				b.Next()
			}
			if err == nil && a.Valid() != b.Valid() {
				err = fmt.Errorf("one iterator ended before the other")
			}
			if err == nil {
				err = IterErr(a)
			}
			releaseA()
			releaseB()
			if err == nil {
				err = m.skipTo(m.hi)
			}
			if err != nil {
				failed(fmt.Errorf("snapshot: %w", err))
				return
			}
			snapshots.Add(1)
		}
	}()
	wg.Wait()
	if st := db.Stats(); st.Flushes < 20 || st.MinorCompactions == 0 || st.MajorCompactions == 0 {
		t.Fatalf("stress ran %d flushes, %d minor and %d major compactions", st.Flushes, st.MinorCompactions, st.MajorCompactions)
	}
	t.Logf("%d short scans, %d snapshots read twice, %d major compactions", scans.Load(), snapshots.Load(), db.Stats().MajorCompactions)
}

// TestStressHeldMemtableKeepsItsSlabs: a scan or a snapshot holding a
// memtable the DB has flushed keeps its slabs out of reuse, however many
// memtables rotate meanwhile, and reads it whole; the release of the last
// holder recycles them, and under recycle.Poison a key the scan handed out
// then reads as poison. Were the DB to recycle a memtable on its own
// reference alone, the key would change while the scan still held it.
func TestStressHeldMemtableKeepsItsSlabs(t *testing.T) {
	recycle.Poison.Store(true)
	defer recycle.Poison.Store(false)
	db := openTestDB(t, Options{MemtableBytes: 64 << 20})
	ctx := context.Background()
	for i := 0; i < 500; i++ {
		if err := db.PutContext(ctx, scanKey(i), residencyValue(i, 1)); err != nil {
			t.Fatal(err)
		}
	}
	it, release, err := db.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	held := it.Entry().Key // aliases a key slab of the memtable
	want := append([]byte(nil), held...)
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	rotate := func(n int) {
		for r := 0; r < n; r++ { // a flush each, so memtables keep being recycled
			flushRange(t, db, 1000+500*r, 1500+500*r, 1, 2)
		}
	}
	read := func(what string, it iterator.Iterator) {
		m := &rangeModel{lo: 0, hi: 500, at: make([]int64, 500)}
		for i := range m.at {
			m.at[i] = 1
		}
		for ; it.Valid(); it.Next() {
			if err := m.entry(it.Entry()); err != nil {
				t.Fatalf("%s: %v", what, err)
			}
		}
		if err := m.skipTo(m.hi); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}

	rotate(6)
	if !bytes.Equal(held, want) {
		t.Fatalf("a key of a held memtable changed to %q while its scan was open", held)
	}
	read("scan", it)
	release()

	rotate(3)
	sit, srelease, err := snap.NewIterator(nil, scanKey(500))
	if err != nil {
		t.Fatal(err)
	}
	read("snapshot", sit)
	srelease()
	for i := 0; i < 500; i += 37 {
		if got, err := snap.Get(scanKey(i)); err != nil || !bytes.Equal(got, residencyValue(i, 1)) {
			t.Fatalf("snapshot Get(%s) = %.16q, %v", scanKey(i), got, err)
		}
	}
	snap.Release()
	if !bytes.Equal(held, bytes.Repeat([]byte{0xdb}, len(held))) {
		t.Fatalf("a key of a released memtable still reads %q: it was not recycled", held)
	}
}

// TestStressRecycledMemtable races point reads, short scans and snapshots
// against a writer whose memtables rotate every few dozen puts and an
// explicit flusher, with recycled key slabs poisoned: every memtable a read
// still names must stay whole while the DB recycles the ones nobody names.
// Gets must return their key's value at a generation no older than the one
// acknowledged before they began; scans follow the range model; a snapshot
// answers the same before and after rotations it outlives. Recycling a
// memtable on the DB's reference alone, ignoring the read views and read
// states that hold it, fails here. Run under -race.
func TestStressRecycledMemtable(t *testing.T) {
	recycle.Poison.Store(true)
	defer recycle.Poison.Store(false)
	db := openTestDB(t, Options{MemtableBytes: 8 << 10, BlockCacheBytes: 64 << 10})
	const keys, window = 600, 16
	var latest [keys]atomic.Int64
	var stop atomic.Bool
	var gets, scans, snapshots atomic.Int64
	var wg sync.WaitGroup
	ctx := context.Background()
	failed := func(err error) {
		t.Error(err)
		stop.Store(true)
	}
	checkValue := func(i int, got []byte, floor int64) error {
		var k, gen int
		if _, err := fmt.Sscanf(string(got), "%08d-%04d-", &k, &gen); err != nil || k != i ||
			!bytes.Equal(got, residencyValue(i, gen)) || int64(gen) < floor {
			return fmt.Errorf("key %d read %.20q…, want generation >= %d", i, got, floor)
		}
		return nil
	}

	wg.Add(2)
	go func() { // writer
		defer wg.Done()
		defer stop.Store(true)
		for gen := 1; gen <= 12 && !stop.Load(); gen++ {
			for i := 0; i < keys; i++ {
				if err := db.PutContext(ctx, scanKey(i), residencyValue(i, gen)); err != nil {
					failed(err)
					return
				}
				latest[i].Store(int64(gen))
			}
		}
	}()
	go func() { // explicit flushes beside the write-triggered ones
		defer wg.Done()
		for !stop.Load() {
			if err := db.Flush(); err != nil {
				failed(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) { // point reads
			defer wg.Done()
			for n := r; !stop.Load(); n += 7 {
				i := n * 31 % keys
				floor := latest[i].Load()
				got, err := db.GetContext(ctx, scanKey(i))
				if err == nil {
					err = checkValue(i, got, floor)
				} else if errors.Is(err, ErrNotFound) && floor == 0 {
					err = nil
				}
				if err != nil {
					failed(fmt.Errorf("Get: %w", err))
					return
				}
				gets.Add(1)
			}
		}(r)
	}
	wg.Add(1)
	go func() { // short scans
		defer wg.Done()
		for n := 0; !stop.Load(); n += 13 {
			lo := n * 37 % (keys - window)
			m := &rangeModel{lo: lo, hi: lo + window, next: lo, at: make([]int64, window)}
			for i := range m.at {
				m.at[i] = latest[lo+i].Load()
			}
			it, release, err := db.NewIterator(scanKey(lo), scanKey(lo+window))
			if err != nil {
				failed(err)
				return
			}
			for ; err == nil && it.Valid(); it.Next() {
				err = m.entry(it.Entry())
			}
			release()
			if err == nil {
				err = m.skipTo(m.hi)
			}
			if err != nil {
				failed(fmt.Errorf("scan: %w", err))
				return
			}
			scans.Add(1)
		}
	}()
	wg.Add(1)
	go func() { // snapshots read, outlived by rotations, and read again
		defer wg.Done()
		for n := 0; !stop.Load(); n++ {
			sn, err := db.Snapshot()
			if err != nil {
				failed(err)
				return
			}
			first := make([][]byte, window)
			for j := range first {
				i := (n*window + j) % keys
				if first[j], err = sn.Get(scanKey(i)); err != nil && !errors.Is(err, ErrNotFound) {
					failed(fmt.Errorf("snapshot Get: %w", err))
					return
				}
			}
			time.Sleep(2 * time.Millisecond) // rotations and flushes pass it by
			for j := range first {
				i := (n*window + j) % keys
				if got, err := sn.Get(scanKey(i)); (err == nil) != (first[j] != nil) || !bytes.Equal(got, first[j]) {
					failed(fmt.Errorf("snapshot Get(%d) read %.20q…, then %.20q… (%v)", i, first[j], got, err))
					return
				}
			}
			sn.Release()
			snapshots.Add(1)
		}
	}()
	wg.Wait()
	if st := db.Stats(); st.Flushes < 50 {
		t.Fatalf("only %d flushes: memtables were not recycled", st.Flushes)
	}
	t.Logf("%d flushes, %d Gets, %d scans, %d snapshots", db.Stats().Flushes, gets.Load(), scans.Load(), snapshots.Load())
}

// putTwicePanics checks that a second Put of x into p panics. It runs under
// recycle.Poison, so that nothing can Get x between the two.
func putTwicePanics[P recycle.Recyclable](t *testing.T, p *recycle.Pool[P], x P) {
	t.Helper()
	recycle.Poison.Store(true)
	defer recycle.Poison.Store(false)
	p.Put(x)
	defer func() {
		if recover() == nil {
			t.Errorf("a second Put of a %T did not panic", x)
		}
	}()
	p.Put(x)
}

// TestRecycledResetBoundsBuffers: the Reset of a recycled commit request,
// and of a WriteBatch — a store's sub-batches and a kvnet worker's batch —
// keeps an arena of normal size, so that the lanes' allocations do not move,
// and drops one grown past recycle.RetainLimit. A second Put of a commit
// request or a scan panics.
func TestRecycledResetBoundsBuffers(t *testing.T) {
	for _, tc := range []struct {
		name  string
		reset func(value []byte) (kept bool)
	}{
		{"commit request", func(value []byte) bool {
			req := commitReqs.New()
			req.one.Put([]byte("key"), value)
			req.Reset()
			return req.one.data != nil
		}},
		{"write batch", func(value []byte) bool {
			var b WriteBatch
			b.Put([]byte("key"), value)
			b.Reset()
			return b.data != nil && b.ops != nil
		}},
	} {
		for _, size := range []int{4 << 10, recycle.RetainLimit} {
			if kept, want := tc.reset(make([]byte, size)), size < recycle.RetainLimit; kept != want {
				t.Errorf("%s holding a %d-byte value: Reset kept its arena %t, want %t", tc.name, size, kept, want)
			}
		}
	}
	putTwicePanics(t, &commitReqs, commitReqs.New())
	db := openTestDB(t, Options{})
	_, release, err := db.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	recycle.Poison.Store(true) // the scan is dropped: nothing can take it in between
	defer recycle.Poison.Store(false)
	release()
	defer func() {
		if recover() == nil {
			t.Error("a second release of a scan did not panic")
		}
	}()
	release()
}
