package lsm

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro/internal/iterator"
)

// TestGroupsNeverHalfVisible is the engine-level twin of the kv suite's
// TestEngineSnapshotIsolation: writers commit two-key batches whose keys
// sit at opposite ends of the key space with filler between, and every
// kind of read view — a live iterator, a snapshot's point reads, a
// snapshot's iterator read twice — must show each pair at one value. The
// iterator holds no lock while it walks the filler, so a group that lands
// mid-walk has to be hidden by the sequence bound alone.
func TestGroupsNeverHalfVisible(t *testing.T) {
	db := openTestDB(t, Options{MemtableBytes: 256 << 10})
	const pairs, fillers = 6, 400
	a := func(i int) []byte { return []byte(fmt.Sprintf("a%02d", i)) }
	z := func(i int) []byte { return []byte(fmt.Sprintf("z%02d", i)) }
	commit := func(i, n int) error {
		var b WriteBatch
		b.Put(a(i), []byte(fmt.Sprint(n)))
		b.Put(z(i), []byte(fmt.Sprint(n)))
		return db.WriteContext(context.Background(), &b)
	}
	for i := 0; i < pairs; i++ {
		if err := commit(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	var fill WriteBatch
	for i := 0; i < fillers; i++ {
		fill.Put([]byte(fmt.Sprintf("m%05d", i)), []byte("filler"))
	}
	if err := db.WriteContext(context.Background(), &fill); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var writers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for n := 1; ; n++ {
				for i := w; i < pairs; i += 2 {
					select {
					case <-stop:
						return
					default:
					}
					if err := commit(i, n); err != nil {
						t.Errorf("writer %d: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	defer writers.Wait()
	defer close(stop)

	// walk reads every pair key through one iterator.
	walk := func(newIter func(start, end []byte) (iterator.Iterator, func(), error)) map[string]string {
		t.Helper()
		it, release, err := newIter(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer release()
		got := map[string]string{}
		for ; it.Valid(); it.Next() {
			if e := it.Entry(); e.Key[0] != 'm' {
				got[string(e.Key)] = string(e.Value)
			}
		}
		return got
	}
	checkPairs := func(view string, got map[string]string) {
		t.Helper()
		for i := 0; i < pairs; i++ {
			av, aok := got[string(a(i))]
			zv, zok := got[string(z(i))]
			if !aok || !zok || av != zv {
				t.Fatalf("%s: pair %d torn or missing: %s=%q (%v) %s=%q (%v)", view, i, a(i), av, aok, z(i), zv, zok)
			}
		}
	}
	for round := 0; round < 150; round++ {
		checkPairs("live iterator", walk(db.NewIterator))

		snap, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		first := walk(snap.NewIterator)
		checkPairs("snapshot iterator", first)
		byGet := map[string]string{}
		for i := 0; i < pairs; i++ {
			for _, k := range [][]byte{a(i), z(i)} {
				v, err := snap.Get(k)
				if err != nil {
					t.Fatalf("snapshot Get(%s): %v", k, err)
				}
				byGet[string(k)] = string(v)
			}
		}
		second := walk(snap.NewIterator)
		if fmt.Sprint(first) != fmt.Sprint(byGet) || fmt.Sprint(first) != fmt.Sprint(second) {
			t.Fatalf("one snapshot, three readings:\n iterator %v\n gets     %v\n iterator %v", first, byGet, second)
		}
		snap.Release()
	}
}

// TestReadBoundCoversRecoveredMemtable: writes made in reverse key order
// are recovered across two unflushed restarts. The read bound must cover the
// newest of them: a scan and a snapshot see every recovered key, tombstones
// included, as Get does. (TestRecoveryOfKeyOrderedSegment replays sequence
// numbers out of order.)
func TestReadBoundCoversRecoveredMemtable(t *testing.T) {
	dir := t.TempDir()
	reopen := func() *DB {
		db, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return db
	}
	db := reopen()
	// Key order is the reverse of sequence order.
	for _, k := range []string{"d", "c", "b", "a"} {
		if err := db.PutContext(context.Background(), []byte(k), []byte("v-"+k)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DeleteContext(context.Background(), []byte("c")); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 2; round++ {
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db = reopen()
		snap, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var scanned []string
		if err := db.RangeContext(context.Background(), nil, nil, func(k, v []byte) error {
			scanned = append(scanned, string(k)+"="+string(v))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprint(scanned), "[a=v-a b=v-b d=v-d]"; got != want {
			t.Errorf("reopen %d: scan = %s, want %s", round, got, want)
		}
		for _, k := range []string{"a", "b", "d"} {
			if v, err := snap.Get([]byte(k)); err != nil || string(v) != "v-"+k {
				t.Errorf("reopen %d: Snapshot.Get(%q) = %q, %v", round, k, v, err)
			}
		}
		if _, err := snap.Get([]byte("c")); err != ErrNotFound {
			t.Errorf("reopen %d: Snapshot.Get(deleted key) = %v, want ErrNotFound", round, err)
		}
		snap.Release()
	}
	// A write after the recovery lands above the bound of a view taken
	// before it and below the bound of one taken after.
	before, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer before.Release()
	if err := db.PutContext(context.Background(), []byte("a"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	if v, err := before.Get([]byte("a")); err != nil || string(v) != "v-a" {
		t.Errorf("snapshot taken before the write reads %q, %v", v, err)
	}
	after, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer after.Release()
	if v, err := after.Get([]byte("a")); err != nil || string(v) != "new" {
		t.Errorf("snapshot taken after the write reads %q, %v", v, err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPinnedMemtableStillFlushes: what an open snapshot makes its memtable
// retain is what some reader can see, and that counts toward the flush
// threshold. A hot key overwritten under the snapshot alone keeps the one
// version the snapshot sees, so nothing grows; with a scan opened between
// the writes every superseded version is some scan's, and the memtable is
// flushed and replaced like any other instead of growing with the write
// count. Without a reader the same writes retain nothing.
func TestPinnedMemtableStillFlushes(t *testing.T) {
	const memtableBytes, writes = 64 << 10, 100000
	key, val := []byte("hot"), bytes.Repeat([]byte("v"), 100)
	one := len(key) + 9 + len(val)
	overwrite := func(db *DB, n int, between func()) {
		t.Helper()
		for i := 0; i < n; i++ {
			between()
			if err := db.PutContext(context.Background(), key, val); err != nil {
				t.Fatal(err)
			}
		}
	}

	unpinned := openTestDB(t, Options{MemtableBytes: memtableBytes})
	overwrite(unpinned, writes, func() {})
	if st := unpinned.Stats(); st.Flushes != 0 {
		t.Errorf("no reader registered: %d flushes, want 0 (an overwrite retains nothing)", st.Flushes)
	}

	pinned := openTestDB(t, Options{MemtableBytes: memtableBytes})
	if err := pinned.PutContext(context.Background(), key, []byte("before")); err != nil {
		t.Fatal(err)
	}
	snap, err := pinned.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	overwrite(pinned, writes, func() {})
	if st := pinned.Stats(); st.Flushes != 0 {
		t.Errorf("snapshot open, no other reader: %d flushes, want 0", st.Flushes)
	}
	if got, want := snap.view.mem.SizeBytes(), one+9+len("before"); got != want {
		t.Errorf("snapshot open, no other reader: memtable holds %d bytes, want %d (the snapshot's version and the live one)", got, want)
	}

	overwrite(pinned, 2*memtableBytes/one, func() {
		_, release, err := pinned.NewIterator(key, nil)
		if err != nil {
			t.Fatal(err)
		}
		release()
	})
	// Only the snapshot's own memtable has a reader across its writes:
	// once that one has flushed, each scan of its successor is gone before
	// the next write, which then retains nothing.
	drainFlusher(t, pinned)
	if st := pinned.Stats(); st.Flushes != 1 {
		t.Errorf("snapshot open, a scan per write: %d flushes, want exactly 1 (the pinned memtable reaching %d bytes)", st.Flushes, memtableBytes)
	}
	if got := snap.view.mem.SizeBytes(); got < memtableBytes || got > memtableBytes+2*(len(val)+9) {
		t.Errorf("pinned memtable holds %d bytes, want just past the %d threshold", got, memtableBytes)
	}
	if v, err := snap.Get(key); err != nil || string(v) != "before" {
		t.Errorf("snapshot Get = %q, %v; want the value from before the overwrites", v, err)
	}
	if v, err := pinned.GetContext(context.Background(), key); err != nil || !bytes.Equal(v, val) {
		t.Errorf("live Get = %q, %v", v, err)
	}
}

// measureRecycling prepares t to count what a recycled scan allocates: it
// skips under the race detector, which drops pooled objects at random, and
// runs the test on one P, since the object sync.Pool keeps in a P's private
// slot is out of reach of a goroutine that has moved to another P.
func measureRecycling(t *testing.T) {
	if raceEnabled {
		t.Skip("recycled scans are dropped at random under the race detector")
	}
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// allocBytesPerRun reports the mean bytes allocated by one call of fn.
func allocBytesPerRun(runs int, fn func()) float64 {
	fn() // warm up lazily built state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// TestReadSetUpIndependentOfMemtableSize pins what the versioned memtable
// bought: a short scan and a snapshot cost the same allocations whether
// the memtable holds a hundred entries or eight thousand — nothing on the
// read path is proportional to it. Tables are identical on both sides, so
// the difference allowed is one allocation size class.
func TestReadSetUpIndependentOfMemtableSize(t *testing.T) {
	measureRecycling(t)
	small := scanFixture(t, 2, 100)
	large := scanFixture(t, 2, 8000)

	scan := func(db *DB) func() { return shortScan(t, db) }
	snapshot := func(db *DB) func() {
		return func() {
			s, err := db.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			s.Release()
		}
	}
	for _, op := range []struct {
		name string
		fn   func(*DB) func()
	}{{"NewIterator+10xNext", scan}, {"Snapshot+Release", snapshot}} {
		if a, b := testing.AllocsPerRun(100, op.fn(small)), testing.AllocsPerRun(100, op.fn(large)); a != b {
			t.Errorf("%s: %v allocs over a 100-entry memtable, %v over 8000", op.name, a, b)
		}
		a, b := allocBytesPerRun(200, op.fn(small)), allocBytesPerRun(200, op.fn(large))
		if diff := a - b; diff > 64 || diff < -64 {
			t.Errorf("%s: %.0f bytes over a 100-entry memtable, %.0f over 8000", op.name, a, b)
		}
		t.Logf("%s: %.0f B/op (100 entries) %.0f B/op (8000 entries)", op.name, a, b)
	}
}

// shortScan is the read the set-up tests measure: NewIterator from a key
// inside every table's range, ten Nexts, release.
func shortScan(t *testing.T, db *DB) func() {
	start := scanKey(40)
	return func() {
		it, release, err := db.NewIterator(start, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10 && it.Valid(); i++ {
			it.Next()
		}
		release()
	}
}

// TestAllocScanSetUpIndependentOfTableCount pins what recycling the read stack
// bought: a short scan over sixteen overlapping tables costs the same
// allocations as one over two. The table iterators and their key arenas,
// the merge heap, the children and table slices and the scan around them
// are all reused, so nothing a scan sets up grows with the tables it
// merges.
func TestAllocScanSetUpIndependentOfTableCount(t *testing.T) {
	measureRecycling(t)
	few, many := scanFixture(t, 2, 100), scanFixture(t, 16, 100)
	if a, b := few.Stats().Tables, many.Stats().Tables; a != 2 || b != 16 {
		t.Fatalf("fixtures hold %d and %d tables, want 2 and 16", a, b)
	}
	if a, b := testing.AllocsPerRun(100, shortScan(t, few)), testing.AllocsPerRun(100, shortScan(t, many)); a != b {
		t.Errorf("NewIterator+10xNext: %v allocs over 2 tables, %v over 16", a, b)
	}
	a, b := allocBytesPerRun(200, shortScan(t, few)), allocBytesPerRun(200, shortScan(t, many))
	if diff := a - b; diff > 64 || diff < -64 {
		t.Errorf("NewIterator+10xNext: %.0f bytes over 2 tables, %.0f over 16", a, b)
	}
	t.Logf("NewIterator+10xNext: %.0f B/op (2 tables) %.0f B/op (16 tables)", a, b)
}

// coldFixture is one flushed table of n entries (~112 B each, so ~13 per
// block) behind a block cache of cacheBytes, with every index chunk parsed
// and the cache full, so that what a read allocates from here on is the
// read's own.
func coldFixture(tb testing.TB, n, cacheBytes int) *DB {
	tb.Helper()
	db := openTestDB(tb, Options{MemtableBytes: 64 << 20, BlockCacheBytes: cacheBytes})
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < n; i++ {
		if err := db.PutContext(context.Background(), scanKey(i), val); err != nil {
			tb.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		tb.Fatal(err)
	}
	if err := db.RangeContext(context.Background(), nil, nil, func(_, _ []byte) error { return nil }); err != nil {
		tb.Fatal(err)
	}
	return db
}

// TestColdGetAllocatesItsValueAndNothingElse: with the cache full, a Get
// that misses it reads into the array its own eviction frees — what is
// left to allocate is the value handed to the caller.
func TestColdGetAllocatesItsValueAndNothingElse(t *testing.T) {
	const n = 20000
	db := coldFixture(t, n, 64<<10) // ~46 of ~1 500 blocks fit
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = scanKey(i)
	}
	i := 0
	get := func() {
		i++
		if _, err := db.GetContext(context.Background(), keys[(i*7919)%n]); err != nil {
			t.Fatal(err)
		}
	}
	_, before, _ := db.blockCache.Stats()
	allocs := testing.AllocsPerRun(500, get)
	bytesPer := allocBytesPerRun(500, get)
	_, after, _ := db.blockCache.Stats()
	if after-before < 1000 {
		t.Fatalf("only %d of 1002 Gets missed the cache; they were not cold", after-before)
	}
	if allocs > 1 || bytesPer >= 256 {
		t.Errorf("cold Get: %v allocs, %.0f B; want 1 alloc (the 100 B value) and < 256 B", allocs, bytesPer)
	}
	t.Logf("cold Get: %v allocs, %.0f B", allocs, bytesPer)
}

// TestScanBytesIndependentOfCacheResidency: the same ten-entry scans
// allocate the same whether their blocks are all cached or almost never —
// a missed block lands in a recycled array, not a new one.
func TestScanBytesIndependentOfCacheResidency(t *testing.T) {
	measureRecycling(t)
	const n = 20000
	measure := func(cacheBytes int) (bytesPer float64, misses uint64) {
		db := coldFixture(t, n, cacheBytes)
		i := 0
		_, before, _ := db.blockCache.Stats()
		bytesPer = allocBytesPerRun(300, func() {
			i++
			it, release, err := db.NewIterator(scanKey((i*7919)%(n-10)), nil)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 10 && it.Valid(); j++ {
				it.Next()
			}
			release()
		})
		_, after, _ := db.blockCache.Stats()
		return bytesPer, after - before
	}
	hot, hotMisses := measure(64 << 20) // the table fits
	cold, coldMisses := measure(64 << 10)
	if hotMisses != 0 || coldMisses < 300 {
		t.Fatalf("hot scans missed %d times, cold scans %d times", hotMisses, coldMisses)
	}
	if diff := cold - hot; diff > 64 || diff < -64 {
		t.Errorf("10-entry scan: %.0f B with blocks cached, %.0f B with blocks read", hot, cold)
	}
	t.Logf("10-entry scan: %.0f B cached, %.0f B cold", hot, cold)
}

// TestGetCopiesOnlyTheWinner: however many overlapping tables a Get has to
// consult, the one thing it allocates is the winning value's copy — a
// cache hit adds no object, and losing candidates are released, not copied.
func TestGetCopiesOnlyTheWinner(t *testing.T) {
	db := scanFixture(t, 8, 0) // eight tables over one key range
	oldest, val := scanKey(0), bytes.Repeat([]byte("w"), 100)
	for tbl := 0; tbl < 3; tbl++ { // and one key rewritten in three more
		if err := db.PutContext(context.Background(), scanKey(1), val); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for _, key := range [][]byte{oldest, scanKey(1)} {
		if n := testing.AllocsPerRun(200, func() {
			if _, err := db.GetContext(context.Background(), key); err != nil {
				t.Fatal(err)
			}
		}); n != 1 {
			t.Errorf("Get(%s) over %d tables: %v allocs, want 1", key, db.Stats().Tables, n)
		}
	}
}
