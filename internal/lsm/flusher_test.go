package lsm

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
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

// TestStressFrozenMemtableVisible: while a frozen memtable waits for its
// flush — the flusher is wedged before it writes a byte — every read path
// sees every key in it: Get, NewIterator, Range and a Snapshot taken now.
// Deletes and overwrites that land in the new memtable shadow it; and a
// snapshot taken before the rotation reads the same after the flush has
// installed the table and dropped the frozen memtable from the view.
func TestStressFrozenMemtableVisible(t *testing.T) {
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

// TestStressWritesProgressWhileFlushWedged: with the flusher wedged mid-flush,
// every write that leaves the new memtable below its threshold completes —
// none waits for the table, the manifest or the segment removal, whichever
// of those the flusher is stuck before.
func TestStressWritesProgressWhileFlushWedged(t *testing.T) {
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
