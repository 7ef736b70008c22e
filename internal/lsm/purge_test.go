package lsm

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/compaction"
	"repro/internal/model"
	"repro/internal/vfs"
	"repro/internal/ycsb"
)

// mergeAt runs one minor compaction of the live tables at positions at,
// oldest first: a test's way to leave a chosen table outside a merge.
func mergeAt(t testing.TB, db *DB, at ...int) *CompactionResult {
	t.Helper()
	res, ran, err := db.minorCompact(pickIndices(at...))
	if err != nil || !ran {
		t.Fatalf("merge of tables %v: ran=%v, %v", at, ran, err)
	}
	return res
}

// putRange writes prefix-000 … prefix-(n-1), each with value, and records
// the puts in m.
func putRange(t testing.TB, db *DB, m *model.Model, prefix string, n int, value string) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("%s-%03d", prefix, i)
		if err := db.PutContext(context.Background(), []byte(key), []byte(value)); err != nil {
			t.Fatal(err)
		}
		m.Put(key, value)
	}
}

func flush(t testing.TB, db *DB) {
	t.Helper()
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

// shadowFixture writes three tables: A holds k-000…k-099 at "old", C the
// unrelated m-000…m-099, and B, newest, k-000…k-049 at "new" — so DB.tables
// is [B, C, A], and a merge of C and A leaves B outside, shadowing half of
// A. value pads every value to size bytes. It returns the model of the
// three tables.
func shadowFixture(t testing.TB, db *DB, size int) *model.Model {
	t.Helper()
	m := model.New()
	pad := func(v string) string { return v + strings.Repeat(".", size-len(v)) }
	putRange(t, db, m, "k", 100, pad("old"))
	flush(t, db)
	putRange(t, db, m, "m", 100, pad("m"))
	flush(t, db)
	putRange(t, db, m, "k", 50, pad("new"))
	flush(t, db)
	return m
}

// tableKeys lists the keys of one live table.
func tableKeys(t testing.TB, th *tableHandle) []string {
	t.Helper()
	var keys []string
	it := th.rd.Iter()
	defer it.Close()
	for ; it.Valid(); it.Next() {
		keys = append(keys, string(it.Entry().Key))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return keys
}

// TestStressMergeDropsVersionsANewerTableShadows: a merge whose inputs hold
// versions a newer live table outside it also holds writes none of them,
// counts them in VersionsPurged, and every read still returns the newest
// version of every key.
func TestStressMergeDropsVersionsANewerTableShadows(t *testing.T) {
	db := openTestDB(t, Options{})
	m := shadowFixture(t, db, 8)
	res := mergeAt(t, db, 0, 1)
	if res.VersionsPurged != 50 || db.Stats().VersionsPurged != 50 {
		t.Fatalf("purged %d versions (stats %d), want the 50 that B shadows", res.VersionsPurged, db.Stats().VersionsPurged)
	}
	keys := tableKeys(t, db.tables[1])
	if len(keys) != 150 || keys[0] != "k-050" {
		t.Fatalf("merge output holds %d keys from %s, want k-050…k-099 and m-000…m-099", len(keys), keys[0])
	}
	model.Check(t, dbReader{db}, m)
}

// TestStressPurgedVersionStaysWithItsReaders: an iterator and a snapshot opened
// before the newer version existed still read the version a later merge
// purges — they pin the tables they were opened on.
func TestStressPurgedVersionStaysWithItsReaders(t *testing.T) {
	db, m := openTestDB(t, Options{}), model.New()
	putRange(t, db, m, "k", 100, "old")
	flush(t, db)
	putRange(t, db, m, "m", 100, "m")
	flush(t, db)
	it, release, err := db.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer release()
	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	putRange(t, db, m, "k", 50, "new")
	flush(t, db)
	if res := mergeAt(t, db, 0, 1); res.VersionsPurged != 50 {
		t.Fatalf("purged %d versions, want 50", res.VersionsPurged)
	}
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("k-%03d", i))
		if v, err := snap.Get(key); err != nil || string(v) != "old" {
			t.Fatalf("snapshot: %s = %q, %v; want old", key, v, err)
		}
	}
	n := 0
	for ; it.Valid(); it.Next() {
		e := it.Entry()
		want := "m"
		if bytes.HasPrefix(e.Key, []byte("k")) {
			want = "old"
		}
		if string(e.Value) != want {
			t.Fatalf("iterator: %s = %q, want %s", e.Key, e.Value, want)
		}
		n++
	}
	if err := IterErr(it); err != nil || n != 200 {
		t.Fatalf("iterator read %d entries, %v; want 200", n, err)
	}
}

// TestStressMemtableVersionPurgesNothing: a newer version that lives only in
// the memtable proves nothing — with SyncWAL off it is not durable — so the
// merge keeps every version it was given.
func TestStressMemtableVersionPurgesNothing(t *testing.T) {
	db, m := openTestDB(t, Options{}), model.New()
	putRange(t, db, m, "k", 100, "old")
	flush(t, db)
	putRange(t, db, m, "m", 100, "m")
	flush(t, db)
	putRange(t, db, m, "k", 50, "new")
	if res := mergeAt(t, db, 0, 1); res.VersionsPurged != 0 {
		t.Fatalf("purged %d versions on the memtable's word", res.VersionsPurged)
	}
	if keys := tableKeys(t, db.tables[0]); len(keys) != 200 {
		t.Fatalf("merge output holds %d keys, want all 200", len(keys))
	}
}

// reopened writes shadowFixture's tables through fsys, with 200-byte
// values, and reopens the DB, so that the outside table B has no index
// chunk parsed and no block resident until Gets of k-000…k-(warm-1) cache
// theirs. It returns the DB, B's path and the model of the tables.
func reopened(t *testing.T, fsys vfs.FS, warm int) (*DB, string, *model.Model) {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(dir, Options{FS: fsys})
	if err != nil {
		t.Fatal(err)
	}
	m := shadowFixture(t, db, 200)
	path := filepath.Join(dir, db.tables[0].name)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, Options{FS: fsys}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	for i := 0; i < warm; i++ {
		if _, err := db.GetContext(context.Background(), []byte(fmt.Sprintf("k-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	return db, path, m
}

// TestStressPurgeIgnoresResidency: what a merge drops is a function of the
// tables alone. Reopened, the outside table has no index chunk parsed and
// no block resident, and the merge drops exactly the 50 versions it
// shadows — as many as once Gets have cached some of its blocks — and
// moves no hit or miss counter.
func TestStressPurgeIgnoresResidency(t *testing.T) {
	for _, warm := range []int{0, 20} {
		t.Run(fmt.Sprintf("warm=%d", warm), func(t *testing.T) {
			db, _, _ := reopened(t, vfs.Default, warm)
			before := db.Stats()
			res := mergeAt(t, db, 0, 1)
			after := db.Stats()
			if res.VersionsPurged != 50 {
				t.Errorf("purged %d versions, want the 50 that B shadows", res.VersionsPurged)
			}
			if after.BlockCacheHits != before.BlockCacheHits || after.BlockCacheMisses != before.BlockCacheMisses {
				t.Errorf("the merge moved the cache's counters: hits %d→%d, misses %d→%d",
					before.BlockCacheHits, after.BlockCacheHits, before.BlockCacheMisses, after.BlockCacheMisses)
			}
		})
	}
}

// TestPurgeKeepsWhatItCannotRead: a proof whose block read fails — the
// read itself, or the block's checksum — proves nothing. The merge still
// installs, keeps every version it could not prove, counts only the drops
// it proved, and once the outside table reads again every Get and the scan
// are right.
func TestPurgeKeepsWhatItCannotRead(t *testing.T) {
	for _, flip := range []bool{false, true} {
		t.Run(fmt.Sprintf("flip=%v", flip), func(t *testing.T) {
			// Gets cache the blocks of k-000…k-019 before B's reads fail,
			// and only the proof reads k-049's; a flipped byte lands in B's
			// first block, which holds k-000.
			warm, kept := 20, "k-049"
			if flip {
				warm, kept = 0, "k-000"
			}
			fsys := vfs.NewFault(vfs.Default, 1)
			db, path, m := reopened(t, fsys, warm)
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if flip {
				bad := bytes.Clone(orig)
				bad[100] ^= 0xff
				if err := os.WriteFile(path, bad, 0o644); err != nil {
					t.Fatal(err)
				}
			} else {
				fsys.SetPathFilter(func(p string) bool { return p == path })
				fsys.SetProb(vfs.OpRead, 1)
			}
			res := mergeAt(t, db, 0, 1)
			if !flip && fsys.Injected(vfs.OpRead) == 0 {
				t.Fatal("no read of B failed: the test tests nothing")
			}
			fsys.Disable()
			if err := os.WriteFile(path, orig, 0o644); err != nil {
				t.Fatal(err)
			}
			keys := tableKeys(t, db.tables[1])
			if res.VersionsPurged == 0 || res.VersionsPurged >= 50 || len(keys) != 200-int(res.VersionsPurged) {
				t.Fatalf("purged %d versions and wrote %d keys; want some of B's 50 purged and the rest kept", res.VersionsPurged, len(keys))
			}
			if !slices.Contains(keys, kept) {
				t.Fatalf("%s, which B's unreadable block holds, was dropped", kept)
			}
			model.Check(t, dbReader{db}, m)
		})
	}
}

// TestStressPurgeKeepsEveryReadRight is TestPurgeKeepsEveryReadRight under
// CI's race-stress rule.
func TestStressPurgeKeepsEveryReadRight(t *testing.T) { TestPurgeKeepsEveryReadRight(t) }

// TestPurgeKeepsEveryReadRight checks every read against the model after
// every merge of every policy family, over a stream of overwrites and one
// of deletes. The merges run one at a time between explicit flushes, so the
// model is exact. It keeps the name its 21 test IDs were recorded under
// before the TestStress/TestAlloc rule; TestStressPurgeKeepsEveryReadRight
// puts it under that rule.
func TestPurgeKeepsEveryReadRight(t *testing.T) {
	families := compaction.EngineStrategies()
	for _, stream := range []struct {
		name      string
		deleteOdd float64
	}{{"overwrite", 0}, {"delete", 0.4}} {
		purged := uint64(0)
		for _, family := range families {
			t.Run(stream.name+"/"+family, func(t *testing.T) {
				policy, err := PolicyByName(family, 2, 1)
				if err != nil {
					t.Fatal(err)
				}
				db := openTestDB(t, Options{})
				purged += purgeModelRun(t, db, policy, stream.deleteOdd)
			})
		}
		if purged == 0 {
			t.Errorf("%s: no family's merges purged anything: the model test tests nothing", stream.name)
		}
	}
}

func purgeModelRun(t *testing.T, db *DB, policy *Policy, deleteOdd float64) uint64 {
	const rounds, perRound = 24, 120
	m := model.New()
	stream := model.Stream(7, rounds*perRound, model.Mix{Keys: 300, Delete: deleteOdd})
	for round := 0; round < rounds; round++ {
		for _, w := range stream[round*perRound : (round+1)*perRound] {
			if err := write(db, w); err != nil {
				t.Fatal(err)
			}
			m.Apply(w...)
		}
		flush(t, db)
		for {
			_, ran, err := db.minorCompact(policy)
			if err != nil {
				t.Fatal(err)
			}
			if !ran {
				break
			}
			model.Check(t, dbReader{db}, m)
		}
	}
	return db.Stats().VersionsPurged
}

// gatedPurgeRun writes a ycsb stream — a load of records keys, then updates
// zipfian overwrites of them — in rounds of 2 000 writes, each flushed and
// followed by every BT(I) k=4 minor pick it makes due, and returns what the
// picks purged and the keys their probe gates skipped. ungated runs the same
// merges with the gate's stride held at 1.
func gatedPurgeRun(t *testing.T, records, updates, cacheBytes int, ungated bool) (purged, skipped uint64) {
	t.Helper()
	if ungated {
		maxProbeStride = 1
		defer func() { maxProbeStride = probeMaxStride }()
	}
	policy, err := PolicyByName("BT(I)", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	db := openTestDB(t, Options{BlockCacheBytes: cacheBytes})
	gen, err := ycsb.NewGenerator(ycsb.Config{RecordCount: records, OperationCount: updates,
		UpdateProportion: 1, Distribution: ycsb.Zipfian, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 32)
	var wb WriteBatch
	for n := 1; n <= records+updates; n++ {
		op, ok := gen.NextLoad()
		if !ok {
			op, _ = gen.NextRun()
		}
		wb.Put(fmt.Appendf(nil, "user%016x", op.Key), val)
		if n%2000 != 0 && n < records+updates {
			continue
		}
		if err := db.WriteContext(context.Background(), &wb); err != nil {
			t.Fatal(err)
		}
		wb.Reset()
		flush(t, db)
		for {
			res, ran, err := db.minorCompact(policy)
			if err != nil {
				t.Fatal(err)
			}
			if !ran {
				break
			}
			purged += res.VersionsPurged
			skipped += res.ProbesSkipped
		}
	}
	if got := db.Stats().VersionsPurged; got != purged {
		t.Fatalf("Stats().VersionsPurged = %d, the picks' results sum to %d", got, purged)
	}
	return purged, skipped
}

// TestProbeGateLosesNoPurge runs one zipfian overwrite stream through minor
// picks gated and ungated: the gate skips keys, yet drops exactly the
// versions the ungated predicate does, at 8 MiB and at 256 MiB of cache
// alike. On this stream its skips fall in merges that have nothing to drop;
// TestProbeGateResetsOnDrop covers a merge where misses turn into drops. A
// stream of fresh keys, which leaves nothing to drop, purges nothing and
// skips keys.
func TestProbeGateLosesNoPurge(t *testing.T) {
	ungated, _ := gatedPurgeRun(t, 20_000, 40_000, 8<<20, true)
	for _, cache := range []int{8 << 20, 256 << 20} {
		purged, skipped := gatedPurgeRun(t, 20_000, 40_000, cache, false)
		t.Logf("zipfian, %d MiB cache: %d versions purged (ungated %d), %d keys unprobed", cache>>20, purged, ungated, skipped)
		if purged != ungated || skipped == 0 {
			t.Errorf("%d MiB cache: the gate purged %d versions and skipped %d keys; ungated purged %d: want equal purges and some keys skipped",
				cache>>20, purged, skipped, ungated)
		}
	}
	purged, skipped := gatedPurgeRun(t, 30_000, 0, 8<<20, false)
	t.Logf("fresh keys: %d versions purged, %d keys unprobed", purged, skipped)
	if purged != 0 || skipped == 0 {
		t.Errorf("a load of fresh keys purged %d versions and skipped %d keys, want none purged and some skipped", purged, skipped)
	}
}

// TestProbeGateResetsOnDrop pins the gate's arithmetic on one merge. Table A
// holds k-00000…k-09999, C ten unrelated keys, and N, newest and left
// outside the merge of A and C, k-05000…k-09999. The merge meets 5 000 keys
// N does not shadow, then 5 000 it does. Every key to k-01023 is probed;
// the stride then doubles to 2 and, 1 024 probes later, at k-03071, to 4,
// so probes land on k-03075, k-03079, …, k-04999, k-05003. The three
// shadowed keys in that last window go unprobed and are kept — the gate's
// whole cost here — and the drop at k-05003 resets the stride to 1, so every
// later shadowed key goes: 4 997 of the ungated 5 000. A gate that kept its
// stride would drop only every 4th.
func TestProbeGateResetsOnDrop(t *testing.T) {
	run := func(ungated bool) *CompactionResult {
		if ungated {
			maxProbeStride = 1
			defer func() { maxProbeStride = probeMaxStride }()
		}
		db := openTestDB(t, Options{})
		m := model.New()
		put := func(from, to int, value string) {
			for i := from; i < to; i++ {
				key := fmt.Sprintf("k-%05d", i)
				if err := db.PutContext(context.Background(), []byte(key), []byte(value)); err != nil {
					t.Fatal(err)
				}
				m.Put(key, value)
			}
			flush(t, db)
		}
		put(0, 10_000, "old")
		putRange(t, db, m, "m", 10, "m")
		flush(t, db)
		put(5_000, 10_000, "new")
		res := mergeAt(t, db, 0, 1)
		model.Check(t, dbReader{db}, m)
		return res
	}
	ungated, gated := run(true), run(false)
	if ungated.VersionsPurged != 5_000 || ungated.ProbesSkipped != 0 {
		t.Fatalf("ungated: %d purged, %d skipped, want 5000 and 0", ungated.VersionsPurged, ungated.ProbesSkipped)
	}
	// Skipped: 1 024 keys at stride 2, 1 446 at stride 4 before k-05000,
	// and the 3 shadowed ones after it.
	if gated.VersionsPurged != 4_997 || gated.ProbesSkipped != 2_473 {
		t.Errorf("gated: %d purged, %d skipped, want 4997 and 2473", gated.VersionsPurged, gated.ProbesSkipped)
	}
}
