package lsm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/iterator"
	"repro/internal/vfs"
)

// TestStressReadsProgressWhileMuHeldExclusively is the acceptance check for the
// lock-free read path: with db.mu held exclusively (the test standing in
// for a flush or compaction critical section), Get, NewIterator and
// Snapshot must all complete — none of them may acquire db.mu on the hot
// path.
func TestStressReadsProgressWhileMuHeldExclusively(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 500; i++ {
		if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 500; i < 600; i++ { // some keys stay in the memtable
		if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}

	db.mu.Lock() // the test hook: an exclusively held store lock
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			if v, err := db.GetContext(context.Background(), []byte("key-0123")); err != nil || string(v) != "v123" {
				return fmt.Errorf("Get under held mu = %q, %v", v, err)
			}
			if v, err := db.GetContext(context.Background(), []byte("key-0550")); err != nil || string(v) != "v550" {
				return fmt.Errorf("memtable Get under held mu = %q, %v", v, err)
			}
			it, release, err := db.NewIterator([]byte("key-0100"), []byte("key-0110"))
			if err != nil {
				return fmt.Errorf("NewIterator under held mu: %v", err)
			}
			n := 0
			for ; it.Valid(); it.Next() {
				n++
			}
			release()
			if n != 10 {
				return fmt.Errorf("iterator under held mu yielded %d entries, want 10", n)
			}
			snap, err := db.Snapshot()
			if err != nil {
				return fmt.Errorf("Snapshot under held mu: %v", err)
			}
			defer snap.Release()
			if v, err := snap.Get([]byte("key-0001")); err != nil || string(v) != "v1" {
				return fmt.Errorf("snapshot Get under held mu = %q, %v", v, err)
			}
			return nil
		}()
	}()
	select {
	case err := <-done:
		db.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		db.mu.Unlock()
		t.Fatal("reads did not progress while db.mu was held: the read path still takes the store lock")
	}
}

// TestStressViewDuringFlushesAndCompactions is the -race harness for the
// view lifecycle: concurrent point reads and scans run against views that
// flushes and minor-compaction swaps keep replacing underneath them, some of
// them three-part views whose frozen memtable waits for its flush. Every
// read must observe a value that was current at some point (values are
// version-stamped per key and only move forward). The run ends once it has
// done enough: viewFlushes flushes, a minor merge and a read of a
// three-part view.
func TestStressViewDuringFlushesAndCompactions(t *testing.T) {
	const viewFlushes = 50
	var (
		db          *DB
		frozenViews atomic.Int64
		sawFrozen   = make(chan struct{}, 1)
		stopped     = make(chan struct{})
		enough      = make(chan struct{})
		enoughOnce  sync.Once
	)
	// Every table create waits until a reader has seen a view with a frozen
	// memtable, so that readers spend a good share of the run on three-part
	// views: a frozen memtable between the live one and the tables. Each
	// flush's segment removal checks whether the run has done enough.
	fsys := &gateFS{FS: vfs.Default, at: func(op fileOp, _ string) {
		switch op {
		case tableCreate:
			select { // a sighting from before this create proves nothing
			case <-sawFrozen:
			default:
			}
			select {
			case <-sawFrozen:
			case <-stopped:
			}
		case segmentRemove:
			if st := db.Stats(); st.Flushes >= viewFlushes && st.MinorCompactions > 0 && frozenViews.Load() > 0 {
				enoughOnce.Do(func() { close(enough) })
			}
		}
	}}
	db, err := Open(t.TempDir(), Options{
		MemtableBytes: 8 << 10,
		AutoCompact:   mustPolicy(t, "size-tiered", 4),
		FS:            fsys,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const keys = 64
	key := func(i int) []byte { return []byte(fmt.Sprintf("key-%03d", i)) }
	// Values carry an 8-digit version plus padding that keeps the tiny
	// memtable flushing continuously.
	val := func(ver int) []byte {
		return []byte(fmt.Sprintf("%08d", ver) + strings.Repeat("x", 120))
	}
	for i := 0; i < keys; i++ {
		if err := db.PutContext(context.Background(), key(i), val(0)); err != nil {
			t.Fatal(err)
		}
	}

	var (
		stop    atomic.Bool
		wg      sync.WaitGroup
		readErr atomic.Value
		failed  = make(chan struct{})
	)
	fail := func(format string, args ...any) {
		if readErr.CompareAndSwap(nil, fmt.Sprintf(format, args...)) {
			close(failed)
		}
	}

	// Writer: bump per-key versions (8-digit, monotone per key).
	wg.Add(1)
	go func() {
		defer wg.Done()
		for ver := 1; !stop.Load(); ver++ {
			for i := 0; i < keys; i++ {
				if err := db.PutContext(context.Background(), key(i), val(ver)); err != nil {
					fail("put: %v", err)
					return
				}
			}
		}
	}()

	// Point readers.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			last := make([]int, keys)
			for n := 0; !stop.Load(); n++ {
				i := (n*7 + r) % keys
				if view := db.view.Load(); view != nil && view.imm != nil {
					frozenViews.Add(1)
					select {
					case sawFrozen <- struct{}{}:
					default:
					}
				}
				v, err := db.GetContext(context.Background(), key(i))
				if err != nil {
					fail("get %s: %v", key(i), err)
					return
				}
				var ver int
				if len(v) != 128 {
					fail("torn value %q for %s", v, key(i))
					return
				}
				if _, err := fmt.Sscanf(string(v[:8]), "%d", &ver); err != nil {
					fail("unparseable value %q for %s", v, key(i))
					return
				}
				if ver < last[i] {
					fail("version moved backwards for %s: %d after %d", key(i), ver, last[i])
					return
				}
				last[i] = ver
			}
		}(r)
	}

	// Scanner: every key present exactly once, every value well-formed.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			seen := 0
			err := db.RangeContext(context.Background(), nil, nil, func(k, v []byte) error {
				if len(v) != 128 {
					return fmt.Errorf("torn scan value %q at %q", v, k)
				}
				seen++
				return nil
			})
			if err != nil {
				fail("scan: %v", err)
				return
			}
			if seen != keys {
				fail("scan saw %d keys, want %d", seen, keys)
				return
			}
		}
	}()

	select {
	case <-enough:
	case <-failed:
	case <-time.After(30 * time.Second):
		st := db.Stats()
		fail("after 30 s only %d flushes, %d minor merges and %d reads of a frozen view",
			st.Flushes, st.MinorCompactions, frozenViews.Load())
	}
	stop.Store(true)
	close(stopped)
	wg.Wait()
	if msg := readErr.Load(); msg != nil {
		t.Fatal(msg)
	}
	t.Logf("%d flushes, %d minor merges, %d reads of a frozen view", db.Stats().Flushes, db.Stats().MinorCompactions, frozenViews.Load())
}

// TestPinnedViewFrozenAndReleasedOnce is the view-lifecycle property test:
// a pinned view (here via its public faces, Snapshot and iterator)
// observes a frozen table set while compactions replace the live one, and
// dropping the last reference closes and deletes each obsolete table's
// reader exactly once.
func TestPinnedViewFrozenAndReleasedOnce(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	for tab := 0; tab < 3; tab++ {
		for i := 0; i < 50; i++ {
			k := []byte(fmt.Sprintf("key-%03d", i))
			if err := db.PutContext(context.Background(), k, []byte(fmt.Sprintf("t%d", tab))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	preFiles := make([]string, len(snap.view.tables))
	for i, th := range snap.view.tables {
		preFiles[i] = th.name
	}
	if len(preFiles) != 3 {
		t.Fatalf("snapshot captured %d tables, want 3", len(preFiles))
	}

	// Overwrite everything and compact: the snapshot's tables all become
	// obsolete.
	for i := 0; i < 50; i++ {
		if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("key-%03d", i)), []byte("post")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.MajorCompact("BT(I)", 2, 1); err != nil {
		t.Fatal(err)
	}

	// Frozen view: the snapshot still reads the pre-compaction values and
	// its table set is untouched.
	if v, err := snap.Get([]byte("key-007")); err != nil || string(v) != "t2" {
		t.Fatalf("snapshot Get after compaction = %q, %v; want the frozen t2", v, err)
	}
	for i, th := range snap.view.tables {
		if th.name != preFiles[i] {
			t.Fatalf("snapshot table set changed: %s became %s", preFiles[i], th.name)
		}
	}
	// The obsolete files must survive on disk while the snapshot pins them.
	for _, name := range preFiles {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Fatalf("obsolete table %s deleted while still pinned: %v", name, err)
		}
	}

	// An iterator takes its own references: it must outlive the snapshot's
	// release.
	it, release, err := snap.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	snap.Release()
	snap.Release() // idempotent; must not double-release the tables
	n := 0
	for ; it.Valid(); it.Next() {
		if string(it.Entry().Value) != "t2" {
			t.Fatalf("post-release iterator saw %q, want frozen t2", it.Entry().Value)
		}
		n++
	}
	if n != 50 {
		t.Fatalf("post-release iterator yielded %d entries, want 50", n)
	}
	release()

	// Last reference gone: every obsolete reader was closed and its file
	// deleted — exactly once each, or the refcount would have gone
	// negative and released twice (caught by the file simply being gone
	// plus the races above).
	for _, name := range preFiles {
		if _, err := os.Stat(filepath.Join(dir, name)); !os.IsNotExist(err) {
			t.Fatalf("obsolete table %s not deleted after last release (err=%v)", name, err)
		}
	}
	for _, th := range snap.view.tables {
		if refs := th.refs.Load(); refs != 0 {
			t.Fatalf("table %s has %d refs after final release, want 0", th.name, refs)
		}
	}
	// Current data still reads fine through the live view.
	if v, err := db.GetContext(context.Background(), []byte("key-007")); err != nil || string(v) != "post" {
		t.Fatalf("live Get after release = %q, %v", v, err)
	}
}

// TestNarrowScanHoldsItsWholeView pins what a scan holds: per shard, one
// pin on the published view and one registration on its memtable. A scan
// over [m, n) reads only the tables overlapping that range, but its pin
// keeps every table of the view, so a table outside the range that a
// compaction supersedes keeps its file until the release, as under a
// Snapshot. The release leaves each view with its publisher's reference
// alone and its memtable with no reader.
func TestNarrowScanHoldsItsWholeView(t *testing.T) {
	start, end := []byte("m"), []byte("n")
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			dbs := make([]*DB, shards)
			put := func(i int, key, val string) {
				t.Helper()
				if err := dbs[i].PutContext(context.Background(), []byte(key), []byte(val)); err != nil {
					t.Fatal(err)
				}
			}
			hot := func(i int) string { return fmt.Sprintf("z-hot-%d", i) }
			for i := range dbs {
				dbs[i] = openTestDB(t, Options{})
				for _, prefix := range []string{"b", "m"} {
					for k := 0; k < 50; k++ {
						put(i, fmt.Sprintf("%s-%03d-%d", prefix, k, i), "old")
					}
					if err := dbs[i].Flush(); err != nil {
						t.Fatal(err)
					}
				}
			}
			// overwrite rewrites shard i's hot key at the same size and
			// reports how the memtable's size moved. It grows when a reader
			// registered since the last write keeps the version it
			// supersedes, and shrinks when no reader is left, since then
			// every older version is unlinked.
			overwrite := func(i int) int {
				mem := dbs[i].view.Load().mem
				before := mem.SizeBytes()
				put(i, hot(i), "1")
				return mem.SizeBytes() - before
			}
			drain := func(it iterator.Iterator, release func()) {
				t.Helper()
				n := 0
				for ; it.Valid(); it.Next() {
					if e := it.Entry(); !bytes.HasPrefix(e.Key, start) || string(e.Value) != "old" {
						t.Fatalf("scan over [m, n) saw %q = %q", e.Key, e.Value)
					}
					n++
				}
				if n != 50*shards {
					t.Fatalf("scan yielded %d entries, want %d", n, 50*shards)
				}
				release()
			}

			var outside []string
			for i := range dbs {
				for _, th := range dbs[i].view.Load().tables {
					if !th.overlaps(start, end) {
						outside = append(outside, filepath.Join(dbs[i].dir, th.name))
					}
				}
			}
			if len(outside) != shards {
				t.Fatalf("%d tables outside [m, n), want one per shard", len(outside))
			}
			it, release, err := NewShardIterator(dbs, start, end)
			if err != nil {
				t.Fatal(err)
			}
			for i := range dbs {
				for k := 0; k < 50; k++ {
					put(i, fmt.Sprintf("b-%03d-%d", k, i), "new")
				}
				if err := dbs[i].Flush(); err != nil {
					t.Fatal(err)
				}
				if _, err := dbs[i].MajorCompact("BT(I)", 2, 1); err != nil {
					t.Fatal(err)
				}
			}
			for _, path := range outside {
				if _, err := os.Stat(path); err != nil {
					t.Fatalf("superseded table outside the scan's range deleted while the scan is open: %v", err)
				}
			}
			drain(it, release)
			for _, path := range outside {
				if _, err := os.Stat(path); !os.IsNotExist(err) {
					t.Fatalf("superseded table %s not deleted at the scan's release (err=%v)", path, err)
				}
			}

			// Each memtable gets a key to overwrite.
			for i := range dbs {
				put(i, hot(i), "0")
			}
			views := make([]*readView, shards)
			for i := range dbs {
				views[i] = dbs[i].view.Load()
			}
			it, release, err = NewShardIterator(dbs, start, end)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range views {
				if refs := v.refs.Load(); refs != 2 {
					t.Fatalf("shard %d: open scan leaves its view at %d refs, want 2", i, refs)
				}
				if overwrite(i) <= 0 {
					t.Fatalf("shard %d: open scan holds no registration on the memtable", i)
				}
			}
			drain(it, release)
			for i, v := range views {
				if refs := v.refs.Load(); refs != 1 {
					t.Fatalf("shard %d: released scan leaves its view at %d refs, want the publisher's 1", i, refs)
				}
				if overwrite(i) >= 0 {
					t.Fatalf("shard %d: released scan left a registration on the memtable", i)
				}
			}
		})
	}
}

// TestKeyRangePruning builds tables with disjoint, adjacent and
// overlapping key ranges and checks point reads at and around every
// boundary, plus that lookups outside all ranges are pruned without
// touching any Bloom filter.
func TestKeyRangePruning(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	flushKeys := func(keys ...string) {
		t.Helper()
		for _, k := range keys {
			if err := db.PutContext(context.Background(), []byte(k), []byte("val-"+k)); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	flushKeys("b", "c", "d") // table 1: [b, d]
	flushKeys("d", "e", "f") // table 2: [d, f] — adjacent/overlapping at d
	flushKeys("m", "n", "p") // table 3: [m, p] — disjoint
	flushKeys("c", "n")      // table 4: [c, n] — overlaps 1, 2, 3

	db.mu.RLock()
	tables := len(db.tables)
	db.mu.RUnlock()
	if tables != 4 {
		t.Fatalf("built %d tables, want 4", tables)
	}

	// Every live key resolves to its newest version, including boundary
	// keys equal to a table's smallest or largest bound.
	for key, want := range map[string]string{
		"b": "val-b", "c": "val-c", "d": "val-d", "e": "val-e",
		"f": "val-f", "m": "val-m", "n": "val-n", "p": "val-p",
	} {
		got, err := db.GetContext(context.Background(), []byte(key))
		if err != nil || string(got) != want {
			t.Errorf("Get(%q) = %q, %v; want %q", key, got, err, want)
		}
	}

	// Probes outside every table's range — before "b", after "p" — must
	// be answered by pruning alone: no Bloom filter consulted, no block
	// read.
	before := db.Stats()
	for _, key := range []string{"a", "q", "z"} {
		if _, err := db.GetContext(context.Background(), []byte(key)); err != ErrNotFound {
			t.Errorf("Get(%q) err = %v, want ErrNotFound", key, err)
		}
	}
	after := db.Stats()
	if after.FilterNegatives != before.FilterNegatives || after.FilterFalsePositives != before.FilterFalsePositives {
		t.Errorf("out-of-range probes touched Bloom filters: negatives %d→%d, fps %d→%d",
			before.FilterNegatives, after.FilterNegatives, before.FilterFalsePositives, after.FilterFalsePositives)
	}

	// "g" lies inside only table 4's [c, n] range: absent, but pruning
	// alone cannot answer it — exactly one table's filter must run. "ca"
	// similarly lies inside [b,d] and [c,n]: probed but absent.
	for _, key := range []string{"g", "ca"} {
		if _, err := db.GetContext(context.Background(), []byte(key)); err != ErrNotFound {
			t.Errorf("Get(%q) err = %v, want ErrNotFound", key, err)
		}
	}
	if got := db.Stats(); got.FilterNegatives == after.FilterNegatives && got.FilterFalsePositives == after.FilterFalsePositives {
		t.Error("in-range absent probes never consulted a Bloom filter: pruning is rejecting too much")
	}

	// Range scans prune too: a scan of [g, h) intersects no table.
	n := 0
	if err := db.RangeContext(context.Background(), []byte("g"), []byte("h"), func(k, v []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Errorf("empty-range scan yielded %d entries", n)
	}
	// And a scan crossing table boundaries sees everything in order.
	var got []string
	if err := db.RangeContext(context.Background(), []byte("c"), []byte("n"), func(k, v []byte) error {
		got = append(got, string(k))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := []string{"c", "d", "e", "f", "m"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Range[c,n) = %v, want %v", got, want)
	}
}

// TestTablesProbedCountsRangeChecksPassed pins Stats.TablesProbed on four
// flushed tables with disjoint and overlapping key ranges: a point read
// counts each table whose range holds the key, newest first, up to the
// table holding the newest version, and nothing when the memtable answers.
func TestTablesProbedCountsRangeChecksPassed(t *testing.T) {
	db := openTestDB(t, Options{})
	for _, keys := range [][]string{
		{"b", "c", "d"}, // [b, d]
		{"d", "e", "f"}, // [d, f], overlapping the first at d
		{"m", "n", "p"}, // [m, p], disjoint
		{"c", "n"},      // [c, n], the newest, overlapping all three
	} {
		for _, k := range keys {
			if err := db.PutContext(context.Background(), []byte(k), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.PutContext(context.Background(), []byte("e"), []byte("in the memtable")); err != nil {
		t.Fatal(err)
	}
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	var total uint64
	for _, tc := range []struct {
		key    string
		probed uint64
		snap   bool
	}{
		{key: "a"},             // below every range
		{key: "z"},             // above every range
		{key: "b", probed: 1},  // only [b, d] holds it
		{key: "c", probed: 1},  // the newest table holds it: no older one can beat it
		{key: "d", probed: 2},  // [c, n] misses, [d, f] holds it, [b, d] is older
		{key: "ca", probed: 2}, // absent from both ranges that hold it
		{key: "g", probed: 1},  // inside [c, n] alone
		{key: "m", probed: 2},  // [c, n] misses, [m, p] holds it
		{key: "e"},             // the memtable answers
		{key: "d", probed: 2, snap: true},
	} {
		if tc.snap {
			snap.Get([]byte(tc.key))
		} else {
			db.GetContext(context.Background(), []byte(tc.key))
		}
		total += tc.probed
		if got := db.Stats().TablesProbed; got != total {
			t.Fatalf("after Get(%q): TablesProbed = %d, want %d", tc.key, got, total)
		}
	}
}

// TestProbeTablesContextCancelled exercises the per-table cancellation
// check: a probe with an expired context stops between tables instead of
// draining the whole set.
func TestProbeTablesContextCancelled(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for tab := 0; tab < 3; tab++ {
		if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("key-%d", tab)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	v, err := db.pinView()
	if err != nil {
		t.Fatal(err)
	}
	defer v.unpin()
	if _, _, err := probeTables(ctx, v.tables, []byte("key-1"), v.probed); err != context.Canceled {
		t.Fatalf("probeTables with cancelled ctx err = %v, want context.Canceled", err)
	}
	// And through the public face.
	if _, err := db.GetContext(ctx, []byte("key-1")); err != context.Canceled {
		t.Fatalf("GetContext with cancelled ctx err = %v, want context.Canceled", err)
	}
}

// TestManifestBoundsRoundTrip: table bounds survive a manifest save and a
// reopen, read back from the table file — the manifest names tables and
// carries no copy of their bounds or sketches — and a manifest that does
// (what builds before the single table format wrote) is refused.
func TestManifestBoundsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"apple", "mango", "zebra"} {
		if err := db.PutContext(context.Background(), []byte(k), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	name, minSeq, maxSeq := db.tables[0].name, db.tables[0].minSeq, db.tables[0].maxSeq
	db.mu.RUnlock()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(raw, []byte("\nbounds ")) || bytes.Contains(raw, []byte("\nsketch ")) {
		t.Fatalf("manifest carries table statistics:\n%s", raw)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	db2.mu.RLock()
	th := db2.tables[0]
	db2.mu.RUnlock()
	if !th.hasBounds || string(th.smallest) != "apple" || string(th.largest) != "zebra" {
		t.Fatalf("reopened handle bounds = %v [%q, %q]", th.hasBounds, th.smallest, th.largest)
	}
	if th.minSeq != minSeq || th.maxSeq != maxSeq || minSeq == 0 {
		t.Errorf("reopened seq bounds [%d, %d], flushed [%d, %d]", th.minSeq, th.maxSeq, minSeq, maxSeq)
	}
	if th.sketch == nil {
		t.Error("reopened table has no sketch")
	}
	if v, err := db2.GetContext(context.Background(), []byte("mango")); err != nil || string(v) != "v" {
		t.Fatalf("Get after reopen = %q, %v", v, err)
	}
	if err := db2.Close(); err != nil {
		t.Fatal(err)
	}

	old := append(raw, fmt.Sprintf("bounds %s 1 3 6170706c65 7a65627261\n", name)...)
	if err := os.WriteFile(filepath.Join(dir, manifestName), old, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with a bounds line in the manifest: err = %v, want ErrCorrupt", err)
	}
}
