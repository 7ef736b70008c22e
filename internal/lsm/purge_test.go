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
)

// oneMerge is a chooser that merges the live tables at fixed positions,
// newest first as DB.tables holds them: a test's way to leave a chosen
// table outside a merge.
type oneMerge struct {
	at     []int
	leaves []*compaction.Node
}

func (c *oneMerge) Name() string { return "fixed" }

func (c *oneMerge) Init(leaves []*compaction.Node, _ int) error {
	c.leaves = leaves
	return nil
}

func (c *oneMerge) Choose() ([]*compaction.Node, error) {
	var out []*compaction.Node
	for _, i := range c.at {
		out = append(out, c.leaves[i])
	}
	return out, nil
}

func (c *oneMerge) Observe(*compaction.Node) {}

// mergeAt runs one minor compaction of the live tables at positions at.
func mergeAt(t testing.TB, db *DB, at ...int) *CompactionResult {
	t.Helper()
	p := &Policy{name: "fixed", k: len(at), chooser: func() compaction.Chooser { return &oneMerge{at: at} }}
	res, ran, err := db.minorCompact(p)
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
	families := append(compaction.Baselines(), compaction.LiveStrategies()...)
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
