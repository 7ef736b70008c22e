package lsm

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ycsb"
)

// drainFlusher waits until the flusher has flushed the frozen memtable and
// finished the picks after it, failing the test on a flush error.
func drainFlusher(t testing.TB, db *DB) {
	t.Helper()
	db.mu.Lock()
	err := db.waitFlusherLocked(context.Background(), true)
	db.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
}

// walSegments lists the WAL files in dir, by name.
func walSegments(t testing.TB, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), walPrefix) {
			segs = append(segs, ent.Name())
		}
	}
	return segs
}

// activeSegment returns the path of the one WAL segment a cleanly closed
// store leaves in dir.
func activeSegment(t testing.TB, dir string) string {
	t.Helper()
	segs := walSegments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("want one WAL segment in %s, have %v", dir, segs)
	}
	return filepath.Join(dir, segs[0])
}

// wedgeFlusher makes the flusher stop at point the first time it gets there:
// reached closes when it has, and release lets it go on (once; also at test
// cleanup, so a failing test does not hang Close). Call before the first
// write.
func wedgeFlusher(t testing.TB, db *DB, point flushPoint) (reached <-chan struct{}, release func()) {
	t.Helper()
	arrived, gate := make(chan struct{}), make(chan struct{})
	var once, first sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	db.mu.Lock()
	db.flushHook = func(p flushPoint) {
		if p == point {
			first.Do(func() { close(arrived) })
			<-gate
		}
	}
	db.mu.Unlock()
	return arrived, release
}

// fillUntil puts key(i) → val(i) for i = from, from+1, … until a write has
// rotated the memtable, waits for done (the wedged flusher's arrival) and
// returns the next unused i. It stops at the rotation rather than at done so
// that it cannot fill a second memtable and wait for the flusher it is
// supposed to outlast.
func fillUntil(t testing.TB, db *DB, done <-chan struct{}, from int, key, val func(int) []byte) int {
	t.Helper()
	for i := from; ; i++ {
		if err := db.PutContext(context.Background(), key(i), val(i)); err != nil {
			t.Fatal(err)
		}
		db.mu.RLock()
		rotated := db.rotations > 0
		db.mu.RUnlock()
		if rotated {
			<-done
			return i + 1
		}
	}
}

func wedgeKey(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func wedgeVal(i int) []byte { return []byte(fmt.Sprintf("value-%06d-%s", i, strings.Repeat("x", 100))) }

// TestFrozenMemtableVisible: while a frozen memtable waits for its flush —
// the flusher is wedged before it writes a byte — every read path sees every
// key in it: Get, NewIterator, Range and a Snapshot taken now. Deletes and
// overwrites that land in the new memtable shadow it; and a snapshot taken
// before the rotation reads the same after the flush has installed the
// table and dropped the frozen memtable from the view.
func TestFrozenMemtableVisible(t *testing.T) {
	db := openTestDB(t, Options{MemtableBytes: 16 << 10, Seed: 5})
	reached, release := wedgeFlusher(t, db, beforeBuild)

	// A few keys and a snapshot from before the rotation.
	for i := 0; i < 10; i++ {
		if err := db.PutContext(context.Background(), wedgeKey(i), wedgeVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer before.Release()
	snapshotOf := func(s *Snapshot) map[string]string {
		t.Helper()
		it, done, err := s.NewIterator(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer done()
		m := map[string]string{}
		for ; it.Valid(); it.Next() {
			m[string(it.Entry().Key)] = string(it.Entry().Value)
		}
		if err := IterErr(it); err != nil {
			t.Fatal(err)
		}
		return m
	}
	wantBefore := snapshotOf(before)
	if len(wantBefore) != 10 {
		t.Fatalf("snapshot before the rotation holds %d keys, want 10", len(wantBefore))
	}

	n := fillUntil(t, db, reached, 10, wedgeKey, wedgeVal)
	db.mu.RLock()
	imm, memKeys := db.imm, db.mem.Len()
	db.mu.RUnlock()
	if imm == nil || imm.Len() < 100 {
		t.Fatalf("flusher wedged but no frozen memtable worth the name (%v)", imm)
	}
	frozen := n - memKeys // keys 0..frozen-1 are in imm, the rest in mem
	t.Logf("%d keys frozen, %d in the new memtable", frozen, memKeys)

	// In the new memtable: delete one frozen key, overwrite another.
	if err := db.DeleteContext(context.Background(), wedgeKey(3)); err != nil {
		t.Fatal(err)
	}
	if err := db.PutContext(context.Background(), wedgeKey(4), []byte("overwritten")); err != nil {
		t.Fatal(err)
	}
	want := func(i int) (string, bool) {
		switch i {
		case 3:
			return "", false
		case 4:
			return "overwritten", true
		}
		return string(wedgeVal(i)), true
	}

	check := func(when string) {
		t.Helper()
		now, err := db.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		defer now.Release()
		for i := 0; i < n; i++ {
			wv, ok := want(i)
			for name, get := range map[string]func(context.Context, []byte) ([]byte, error){"GetContext": db.GetContext, "Snapshot.Get": func(_ context.Context, k []byte) ([]byte, error) { return now.Get(k) }} {
				v, err := get(context.Background(), wedgeKey(i))
				if ok && (err != nil || string(v) != wv) || !ok && err != ErrNotFound {
					t.Fatalf("%s: %s(%s) = %q, %v; want %q, present=%v", when, name, wedgeKey(i), v, err, wv, ok)
				}
			}
		}
		scans := map[string]map[string]string{"Snapshot.NewIterator": snapshotOf(now), "NewIterator": {}, "Range": {}}
		it, done, err := db.NewIterator(nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		for ; it.Valid(); it.Next() {
			scans["NewIterator"][string(it.Entry().Key)] = string(it.Entry().Value)
		}
		done()
		if err := db.RangeContext(context.Background(), wedgeKey(0), nil, func(k, v []byte) error {
			scans["Range"][string(k)] = string(v)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for name, got := range scans {
			if len(got) != n-1 {
				t.Fatalf("%s: %s yields %d keys, want %d", when, name, len(got), n-1)
			}
			for i := 0; i < n; i++ {
				if wv, ok := want(i); ok && got[string(wedgeKey(i))] != wv {
					t.Fatalf("%s: %s has %s = %q, want %q", when, name, wedgeKey(i), got[string(wedgeKey(i))], wv)
				}
			}
		}
		if got := snapshotOf(before); !reflect.DeepEqual(got, wantBefore) {
			t.Fatalf("%s: the snapshot from before the rotation changed: %d keys, want %d", when, len(got), len(wantBefore))
		}
	}
	check("flusher wedged")
	// Keys 3 and 4 are in both memtables.
	if st := db.Stats(); st.Flushes != 0 || st.MemtableKeys != n+2 {
		t.Fatalf("flusher wedged: %d flushes, %d memtable keys; want 0 and %d", st.Flushes, st.MemtableKeys, n+2)
	}

	release()
	drainFlusher(t, db)
	if st := db.Stats(); st.Flushes != 1 || st.Tables != 1 {
		t.Fatalf("after the flush: %d flushes, %d tables", st.Flushes, st.Tables)
	}
	if v := db.view.Load(); v.imm != nil {
		t.Fatal("the view still carries the frozen memtable after its flush")
	}
	check("flush installed")
}

// TestWritesProgressWhileFlushWedged: with the flusher wedged mid-flush,
// every write that leaves the new memtable below its threshold completes —
// none waits for the table, the manifest or the segment removal, whichever
// of those the flusher is stuck before.
func TestWritesProgressWhileFlushWedged(t *testing.T) {
	const memtable = 256 << 10
	for _, point := range []flushPoint{beforeBuild, beforeManifest, beforeRemove} {
		db := openTestDB(t, Options{MemtableBytes: memtable, Seed: 5})
		reached, release := wedgeFlusher(t, db, point)
		n := fillUntil(t, db, reached, 0, wedgeKey, wedgeVal)
		done := make(chan error, 1)
		puts := 0
		go func() {
			for {
				db.mu.RLock()
				room := memtable - db.mem.SizeBytes()
				db.mu.RUnlock()
				if room < 1<<10 {
					done <- nil
					return
				}
				if err := db.PutContext(context.Background(), wedgeKey(n+puts), wedgeVal(n+puts)); err != nil {
					done <- err
					return
				}
				puts++
			}
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("writes blocked behind a flusher wedged at point %d", point)
		}
		if st := db.Stats(); puts < 100 || st.WriteStalls != 0 || st.Flushes > 1 {
			t.Errorf("point %d: %d puts, %d write stalls, %d flushes while under one memtable", point, puts, st.WriteStalls, st.Flushes)
		}
		for i := 0; i < n+puts; i += 17 {
			if v, err := db.GetContext(context.Background(), wedgeKey(i)); err != nil || !bytes.Equal(v, wedgeVal(i)) {
				t.Fatalf("point %d: Get(%s) = %.20q, %v", point, wedgeKey(i), v, err)
			}
		}
		release()
		drainFlusher(t, db)
	}
}

// TestFlushScheduleIsDeterministic pins what the hand-off must not change:
// where memtables are cut, what each flush holds and which tables each pick
// merges are functions of the write stream alone. A seeded single-writer
// zipfian stream through a 1 MiB memtable with the BT(I) k=4 live picker —
// 31 rotations and a final Flush — ends with exactly the counters the same
// stream produced at the parent commit (468628b), where every flush and pick
// ran inside the Put that caused it, however the flusher is delayed: by
// random sleeps at each of its steps and, for one flush in four, until the
// writer has filled the next memtable and is waiting for it. Every other
// policy family PolicyByName resolves — Bigtable's count trigger,
// Cassandra's size tiers, the leveled layout and a sketch-ranked paper
// strategy — is pinned the same way, once undelayed and once delayed, on
// the stream's first 40 000 writes through a 256 KiB memtable.
//
// Every run, the families' one delayed run each included, uses the default
// block cache and must end with every pinned counter, bytes included: what
// a merge drops is proved from the tables, whatever the cache holds. The
// byte counts of the three families whose merges leave newer tables outside
// them (BT(I), threshold, SO) were re-pinned when merges began to drop the
// versions those tables shadow, BT(I)'s again when minor picks began to
// rank each table by its estimated live keys, and every family's byte
// counts (flushed, compacted, table bytes) when data blocks shrank from
// 2 KiB to 1.5 KiB, and SO's when minor picks were handed the tables oldest
// first (SO breaks a tie between equal union estimates by table position);
// every count is the parent's.
func TestFlushScheduleIsDeterministic(t *testing.T) {
	gen, err := ycsb.NewGenerator(ycsb.Config{RecordCount: 20_000, OperationCount: 160_000, UpdateProportion: 1, Distribution: ycsb.Zipfian, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	all := gen.All()
	for _, tc := range []struct {
		policy        string
		ops, memtable int
		runs          int
		want          Stats
	}{
		{"BT(I)", len(all), 1 << 20, 5, Stats{
			Flushes: 32, MinorCompactions: 8, Tables: 8,
			BytesFlushed: 33947322, BytesCompacted: 22568237, TableBytes: 16934408,
			CompactionPicks: map[string]uint64{"BT(I)": 8},
		}},
		{"threshold", 40_000, 256 << 10, 2, Stats{
			Flushes: 50, MinorCompactions: 14, Tables: 8,
			BytesFlushed: 13281902, BytesCompacted: 22838966, TableBytes: 11074150,
			CompactionPicks: map[string]uint64{"threshold": 14},
		}},
		{"size-tiered", 40_000, 256 << 10, 2, Stats{
			Flushes: 50, MinorCompactions: 15, Tables: 5,
			BytesFlushed: 13281902, BytesCompacted: 22387757, TableBytes: 11158455,
			CompactionPicks: map[string]uint64{"size-tiered": 15},
		}},
		{"leveled", 40_000, 256 << 10, 2, Stats{
			Flushes: 50, MinorCompactions: 12, Tables: 3,
			BytesFlushed: 13281902, BytesCompacted: 72485156, TableBytes: 9099662,
			CompactionPicks: map[string]uint64{"leveled": 12},
		}},
		{"SO", 40_000, 256 << 10, 2, Stats{
			Flushes: 50, MinorCompactions: 14, Tables: 8,
			BytesFlushed: 13281902, BytesCompacted: 22830685, TableBytes: 11071007,
			CompactionPicks: map[string]uint64{"SO": 14},
		}},
	} {
		t.Run(tc.policy, func(t *testing.T) {
			for run := 0; run < tc.runs; run++ {
				got, want := flushScheduleRun(t, tc.policy, all[:tc.ops], tc.memtable, run), tc.want
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("run %d: flushes %d minor %d tables %d flushed %d compacted %d table bytes %d picks %v;\nwant    flushes %d minor %d tables %d flushed %d compacted %d table bytes %d picks %v",
						run, got.Flushes, got.MinorCompactions, got.Tables, got.BytesFlushed, got.BytesCompacted, got.TableBytes, got.CompactionPicks,
						want.Flushes, want.MinorCompactions, want.Tables, want.BytesFlushed, want.BytesCompacted, want.TableBytes, want.CompactionPicks)
				}
			}
		})
	}
}

// flushScheduleRun writes ops through a DB with the named auto-compaction
// policy, its flusher delayed at random unless run is 0, and returns the
// DB's schedule counters.
func flushScheduleRun(t *testing.T, policyName string, ops []ycsb.Op, memtable, run int) Stats {
	policy, err := PolicyByName(policyName, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The skiplist seed varies too: tower heights are not part of what a
	// memtable weighs.
	db := openTestDB(t, Options{MemtableBytes: memtable, AutoCompact: policy, Seed: int64(run)})
	defer db.Close()
	delays := rand.New(rand.NewSource(int64(run)))
	var writerDone atomic.Bool
	db.mu.Lock()
	db.flushHook = func(p flushPoint) { // the flusher's goroutine only
		if run == 0 {
			return // as fast as it goes
		}
		time.Sleep(time.Duration(delays.Intn(2000)) * time.Microsecond)
		if p == beforeBuild && delays.Intn(4) == 0 {
			for full := false; !full && !writerDone.Load(); time.Sleep(100 * time.Microsecond) {
				db.mu.RLock()
				full = db.mem.SizeBytes() >= db.opts.MemtableBytes
				db.mu.RUnlock()
			}
		}
	}
	db.mu.Unlock()
	var key [16]byte
	val := make([]byte, 400)
	for i, op := range ops {
		binary.BigEndian.PutUint64(key[8:], op.Key)
		binary.BigEndian.PutUint64(val, uint64(i))
		if err := db.PutContext(context.Background(), key[:], val); err != nil {
			t.Fatal(err)
		}
	}
	writerDone.Store(true)
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if run > 0 && st.WriteStalls == 0 {
		t.Errorf("run %d: the delayed flusher never made the writer wait; the delays test nothing", run)
	}
	return Stats{
		Flushes: st.Flushes, MinorCompactions: st.MinorCompactions, Tables: st.Tables,
		BytesFlushed: st.BytesFlushed, BytesCompacted: st.BytesCompacted, TableBytes: st.TableBytes,
		CompactionPicks: st.CompactionPicks,
	}
}
