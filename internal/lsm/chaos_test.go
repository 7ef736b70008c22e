package lsm

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/model"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// TestChaosRandomOpsWithCrashes runs a long random workload against the
// store, interleaving crashes (close without flushing), recoveries, minor
// and major compactions, and checks the store against the model after
// every round and after a last recovery. This is the failure-injection
// integration test for the whole write path: WAL → memtable → sstables →
// compactions.
func TestChaosRandomOpsWithCrashes(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(97))
	m := model.New()
	open := func() *DB {
		db, err := Open(dir, Options{
			MemtableBytes: 4 << 10,
			AutoCompact:   mustPolicy(t, "size-tiered", 4),
			Seed:          int64(r.Int()),
		})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return db
	}

	db := open()
	const rounds, perRound = 6, 400
	stream := model.Stream(97, rounds*perRound, model.Mix{Keys: 300, Delete: 0.2})
	for round := 0; round < rounds; round++ {
		for _, w := range stream[round*perRound : (round+1)*perRound] {
			if err := write(db, w); err != nil {
				t.Fatal(err)
			}
			m.Apply(w...)
		}
		switch round % 3 {
		case 0: // crash: close without flushing, reopen, recover from WAL
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db = open()
		case 1: // major compaction mid-stream
			strat := []string{"SI", "BT(I)", "RANDOM"}[r.Intn(3)]
			if _, err := db.MajorCompact(strat, 2+r.Intn(3), int64(round)); err != nil {
				t.Fatal(err)
			}
		default: // just flush
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		model.Check(t, dbReader{db}, m)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// One last recovery pass.
	db = open()
	defer db.Close()
	model.Check(t, dbReader{db}, m)
}

// errSimulatedCrash marks a fault injected by the compaction test hook.
var errSimulatedCrash = errors.New("simulated crash")

// checkNoOrphans asserts every sstable file in dir is referenced by the
// manifest the given open DB loaded — i.e. recovery deleted the merge
// outputs a crashed compaction left behind.
func checkNoOrphans(t *testing.T, dir string, db *DB) {
	t.Helper()
	live := make(map[string]bool)
	for _, info := range db.TableInfos() {
		live[info.Name] = true
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".sst") && !live[ent.Name()] {
			t.Fatalf("orphaned sstable %s survived recovery (live: %v)", ent.Name(), db.TableInfos())
		}
	}
}

// TestChaosCrashBetweenMergeAndSwap kills a major compaction after every
// merge has completed but before the manifest swap — the riskiest instant
// of the background design, when gigabytes of merged output exist on disk
// yet the manifest still points at the old tables. Recovery must see all
// pre-crash data and delete the orphaned merge outputs.
func TestChaosCrashBetweenMergeAndSwap(t *testing.T) {
	dir := t.TempDir()
	m := model.New()
	open := func() *DB {
		db, err := Open(dir, Options{MemtableBytes: 2 << 10, Seed: 11})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		return db
	}
	db := open()

	for round := 0; round < 4; round++ {
		// Build up several overlapping tables.
		for i := 0; i < 600; i++ {
			key := fmt.Sprintf("key-%03d", (round*131+i)%250)
			val := fmt.Sprintf("v-%d-%d", round, i)
			if err := db.PutContext(context.Background(), []byte(key), []byte(val)); err != nil {
				t.Fatal(err)
			}
			m.Put(key, val)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		sstBefore := countSSTFiles(t, dir)

		// Compact with a fault injected between merging and swapping.
		db.hookBeforeSwap = func() error { return errSimulatedCrash }
		strat := []string{"SI", "BT(I)", "SO", "RANDOM"}[round]
		if _, err := db.MajorCompact(strat, 2+round%2, int64(round)); !errors.Is(err, errSimulatedCrash) {
			t.Fatalf("round %d: MajorCompact = %v, want simulated crash", round, err)
		}
		db.hookBeforeSwap = nil
		if got := countSSTFiles(t, dir); got <= sstBefore {
			t.Fatalf("round %d: crash left no merge outputs on disk (%d -> %d .sst files); fault injected too early", round, sstBefore, got)
		}

		// "Kill" the process: close without any further compaction, reopen.
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db = open()

		// No data loss: the old manifest still governs.
		model.Check(t, dbReader{db}, m)
		// No orphans: recovery removed the abandoned merge outputs.
		checkNoOrphans(t, dir, db)
	}

	// A compaction with no fault must now succeed and still lose nothing.
	res, err := db.MajorCompact("BT(I)", 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	if res.TablesAfter != 1 {
		t.Fatalf("clean compaction left %d tables, want 1", res.TablesAfter)
	}
	model.Check(t, dbReader{db}, m)
	checkNoOrphans(t, dir, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func countSSTFiles(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ent := range entries {
		if strings.HasSuffix(ent.Name(), ".sst") {
			n++
		}
	}
	return n
}

// crashImage copies dir as a process kill would leave it: everything the
// store has handed to the filesystem, synced or not.
func crashImage(t *testing.T, dir string) string {
	t.Helper()
	image := t.TempDir()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(image, ent.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return image
}

// TestChaosCrashAtFlushPoints kills the store at each instant of a background
// flush — after the rotation with no table yet, after the table is written
// and synced but before the manifest names it, after the manifest save but
// before the frozen memtable's WAL segment is removed — with writes in the
// next segment that overwrite and delete keys of the first. Every
// acknowledged write must read back after reopening the crash image: two
// segments replay in order, a table outside the manifest is removed as an
// orphan, and records the manifest's tables already hold are skipped rather
// than replayed into the memtable and flushed a second time.
func TestChaosCrashAtFlushPoints(t *testing.T) {
	for point, name := range map[flushPoint]string{
		beforeBuild:    "no table yet",
		beforeManifest: "table outside the manifest",
		beforeRemove:   "segment outlives the manifest save",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fault := vfs.NewFault(vfs.Default, 1)
			fault.SetPathFilter(func(path string) bool { return strings.HasPrefix(filepath.Base(path), walPrefix) })
			db, err := Open(dir, Options{FS: fault, SyncWAL: true, MemtableBytes: 16 << 10, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			reached, release := wedgeFlusher(t, db, point)
			n := fillUntil(t, db, reached, 0, wedgeKey, wedgeVal)
			// The first write into the second segment fails and is rolled
			// back: the sequence numbers it was given go to the next write,
			// or the segment would read as the one after a lost tail.
			fault.SetProb(vfs.OpWrite, 1)
			if err := db.PutContext(context.Background(), wedgeKey(0), []byte("never logged")); !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("Put with the segment write failing: %v", err)
			}
			fault.SetProb(vfs.OpWrite, 0)
			db.mu.RLock()
			after := db.mem.Len() // keys n-after..n-1 went to the second segment
			db.mu.RUnlock()
			m := model.New()
			for i := 0; i < n; i++ {
				m.Put(string(wedgeKey(i)), string(wedgeVal(i)))
			}
			// Into the second segment: shadow two keys of the first.
			if err := db.DeleteContext(context.Background(), wedgeKey(1)); err != nil {
				t.Fatal(err)
			}
			m.Delete(string(wedgeKey(1)))
			if err := db.PutContext(context.Background(), wedgeKey(2), []byte("second segment wins")); err != nil {
				t.Fatal(err)
			}
			m.Put(string(wedgeKey(2)), "second segment wins")
			after += 2

			image := crashImage(t, dir)
			if segs := walSegments(t, image); len(segs) != 2 {
				t.Fatalf("crash image holds WAL files %v, want two segments", segs)
			}
			release()
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if point == beforeRemove {
				// Every record of the first segment is in the table, so a
				// tear in it loses nothing and must not end the replay.
				stale := filepath.Join(image, walSegments(t, image)[0])
				data, err := os.ReadFile(stale)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(stale, data[:len(data)-3], 0o644); err != nil {
					t.Fatal(err)
				}
			}

			db2, err := Open(image, Options{MemtableBytes: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close()
			model.Check(t, dbReader{db2}, m)
			checkNoOrphans(t, image, db2)
			st := db2.Stats()
			wantTables, wantMem, wantRecords := 0, n, n+2
			if point == beforeRemove {
				// The first segment's records are in the table the manifest
				// names: replay must pass over them.
				wantTables, wantMem, wantRecords = 1, after, after
			}
			if st.Tables != wantTables || st.MemtableKeys != wantMem || st.WALRecoveredRecords != wantRecords || st.Flushes != 0 {
				t.Fatalf("after recovery: %d tables, %d memtable keys, %d records replayed, %d flushes; want %d, %d, %d, 0",
					st.Tables, st.MemtableKeys, st.WALRecoveredRecords, st.Flushes, wantTables, wantMem, wantRecords)
			}
			if segs := walSegments(t, image); len(segs) != 1 {
				t.Fatalf("after recovery the directory holds WAL files %v, want one segment", segs)
			}
		})
	}
}

// TestChaosCloseDuringWedgedFlush: Close called while the flusher is stuck
// mid-flush waits for that flush instead of pulling the files out from under
// it, and reopening finds every acknowledged write — those of the frozen
// memtable, flushed or not, and those after it.
func TestChaosCloseDuringWedgedFlush(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{SyncWAL: true, MemtableBytes: 16 << 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	reached, release := wedgeFlusher(t, db, beforeManifest)
	n := fillUntil(t, db, reached, 0, wedgeKey, wedgeVal)
	closed := make(chan error, 1)
	go func() { closed <- db.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with the flusher wedged mid-flush", err)
	case <-time.After(50 * time.Millisecond):
	}
	release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for i := 0; i < n; i++ {
		if v, err := db2.GetContext(context.Background(), wedgeKey(i)); err != nil || string(v) != string(wedgeVal(i)) {
			t.Fatalf("after reopen Get(%s) = %.20q, %v", wedgeKey(i), v, err)
		}
	}
	checkNoOrphans(t, dir, db2)
}

// TestRecoveryOfOddWALDirectories: a directory from before segments (a bare
// wal.log) opens as segment 0 and orders before any numbered segment; a
// leftover wal.log.new — Open killed while re-logging — is ignored and
// removed; a segment that lost its tail — torn, or cut at a frame boundary —
// ends the replay, because the segments after it were written after the part
// that was lost, and a torn segment that lost nothing ends nothing.
func TestRecoveryOfOddWALDirectories(t *testing.T) {
	segment := func(t *testing.T, path string, recs ...wal.Record) {
		t.Helper()
		w, err := wal.Create(vfs.Default, path)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	put := func(seq uint64, k, v string) wal.Record {
		return wal.Record{Op: wal.OpPut, Seq: seq, Key: []byte(k), Value: []byte(v)}
	}
	dir := t.TempDir()
	segment(t, filepath.Join(dir, "wal.log"), put(1, "a", "legacy"), put(2, "b", "legacy"))
	segment(t, filepath.Join(dir, "wal.log.000004"), put(3, "a", "segment 4"))
	segment(t, filepath.Join(dir, "wal.log.new"), put(9, "a", "abandoned re-log"), put(10, "z", "abandoned re-log"))
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range map[string]string{"a": "segment 4", "b": "legacy"} {
		if v, err := db.GetContext(context.Background(), []byte(k)); err != nil || string(v) != want {
			t.Fatalf("Get(%s) = %q, %v; want %q", k, v, err, want)
		}
	}
	if _, err := db.GetContext(context.Background(), []byte("z")); err != ErrNotFound {
		t.Fatalf("a record of wal.log.new was replayed: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := walSegments(t, dir); len(segs) != 1 || segs[0] != "wal.log.000005" {
		t.Fatalf("after recovery the directory holds WAL files %v, want wal.log.000005 alone", segs)
	}

	// Two segments each; the first loses its tail. Sequence numbers run on
	// from one segment into the next, so what the second begins with says
	// whether anything between them is missing.
	for _, tc := range []struct {
		name      string
		first     []wal.Record
		cut       int // bytes cut from the end of the first segment
		second    []wal.Record
		want      map[string]string
		truncated bool
		records   int
	}{
		{
			name:  "torn tail ends the replay",
			first: []wal.Record{put(1, "a", "1"), put(2, "b", "1")}, cut: 3,
			second:    []wal.Record{put(3, "c", "2")},
			want:      map[string]string{"a": "1"},
			truncated: true, records: 1,
		},
		{
			// Without SyncWAL nothing fsyncs a segment when the next one
			// starts: a crash can drop whole frames off its end and keep the
			// next segment's pages.
			name:      "tail lost at a frame boundary ends the replay",
			first:     []wal.Record{put(1, "a", "1")}, // and 2, lost whole
			second:    []wal.Record{put(3, "c", "2")},
			want:      map[string]string{"a": "1"},
			truncated: true, records: 1,
		},
		{
			// An Open that found the first segment torn re-logged its prefix
			// into the second and failed before the first was gone; writes
			// acknowledged since are in the second. The stale torn segment
			// must not hide them.
			name:  "torn segment does not hide the re-log that replaced it",
			first: []wal.Record{put(1, "a", "1"), put(2, "b", "1")}, cut: 3,
			second:    []wal.Record{put(1, "a", "1"), put(2, "c", "acked")},
			want:      map[string]string{"a": "1", "c": "acked"},
			truncated: true, records: 3,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			first := filepath.Join(dir, "wal.log.000001")
			segment(t, first, tc.first...)
			data, err := os.ReadFile(first)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(first, data[:len(data)-tc.cut], 0o644); err != nil {
				t.Fatal(err)
			}
			segment(t, filepath.Join(dir, "wal.log.000002"), tc.second...)
			db, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			got := map[string]string{}
			if err := db.RangeContext(context.Background(), nil, nil, func(k, v []byte) error {
				got[string(k)] = string(v)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(got, tc.want) {
				t.Fatalf("recovered %v, want %v", got, tc.want)
			}
			if st := db.Stats(); st.WALRecoveryTruncated != tc.truncated || st.WALRecoveredRecords != tc.records {
				t.Fatalf("recovery stats: truncated %v, %d records; want %v, %d",
					st.WALRecoveryTruncated, st.WALRecoveredRecords, tc.truncated, tc.records)
			}
		})
	}
}

// TestOpenKeepsNoStaleSegment: Open re-logs what it recovered into a new
// segment and must not hand out a DB while a segment it replayed is still
// there — the next Open would read the stale one first. With the removal
// failing, Open fails, nothing is acknowledged against that directory, and a
// later Open finds the prefix and keeps what is written after it.
func TestOpenKeepsNoStaleSegment(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "c"} {
		if err := db.PutContext(context.Background(), []byte(k), []byte("1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	seg := activeSegment(t, dir)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	fault := vfs.NewFault(vfs.Default, 1)
	fault.SetPathFilter(func(path string) bool { return strings.HasPrefix(filepath.Base(path), walPrefix) })
	fault.SetProb(vfs.OpRemove, 1)
	if db, err := Open(dir, Options{FS: fault, SyncWAL: true}); !errors.Is(err, vfs.ErrInjected) {
		if err == nil {
			db.Close()
		}
		t.Fatalf("Open with the torn segment irremovable: %v, want the injected error", err)
	}
	fault.Disable()
	for round := 0; round < 2; round++ {
		db, err := Open(dir, Options{FS: fault, SyncWAL: true})
		if err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{"a": true, "b": true, "c": false, "acked": round == 1}
		for k, present := range want {
			if _, err := db.GetContext(context.Background(), []byte(k)); (err == nil) != present || (err != nil && err != ErrNotFound) {
				t.Fatalf("round %d: Get(%s): %v, want present=%v", round, k, err, present)
			}
		}
		if err := db.PutContext(context.Background(), []byte("acked"), []byte("1")); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		activeSegment(t, dir) // one segment, whatever the failed Open left
	}

	// A segment replay dropped (it begins after a lost tail) must not be
	// left as the oldest by a removal that fails part-way: it would be
	// replayed next time.
	gap := t.TempDir()
	for name, seq := range map[string]uint64{"wal.log.000001": 1, "wal.log.000002": 3} {
		w, err := wal.Create(vfs.Default, filepath.Join(gap, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(wal.Record{Op: wal.OpPut, Seq: seq, Key: []byte(name), Value: []byte("1")}); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	fault = vfs.NewFault(vfs.Default, 1)
	fault.SetPathFilter(func(path string) bool { return filepath.Base(path) == "wal.log.000002" })
	fault.SetProb(vfs.OpRemove, 1)
	if db, err := Open(gap, Options{FS: fault}); !errors.Is(err, vfs.ErrInjected) {
		if err == nil {
			db.Close()
		}
		t.Fatalf("Open with the dropped segment irremovable: %v, want the injected error", err)
	}
	fault.Disable()
	db, err = Open(gap, Options{FS: fault})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.GetContext(context.Background(), []byte("wal.log.000001")); err != nil {
		t.Fatalf("record before the gap: %v", err)
	}
	if _, err := db.GetContext(context.Background(), []byte("wal.log.000002")); err != ErrNotFound {
		t.Fatalf("record after the gap: %v, want not found", err)
	}
}
