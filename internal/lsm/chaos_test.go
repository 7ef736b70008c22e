package lsm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
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
// yet the manifest still points at the old tables. The crash image is taken
// as the swap begins to write the new manifest. Recovery from it must see
// all pre-crash data and delete the orphaned merge outputs.
func TestChaosCrashBetweenMergeAndSwap(t *testing.T) {
	dir := t.TempDir()
	m := model.New()
	// While swapping is set, the first manifest create takes the crash
	// image: the major's swap, on the test's goroutine.
	var swapping atomic.Bool
	var image string
	fsys := &gateFS{FS: vfs.Default, at: func(op fileOp, _ string) {
		if op == manifestCreate && swapping.Load() && image == "" {
			image = crashImage(t, dir)
		}
	}}
	open := func() *DB {
		db, err := Open(dir, Options{MemtableBytes: 2 << 10, FS: fsys})
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

		strat := []string{"SI", "BT(I)", "SO", "RANDOM"}[round]
		image = ""
		swapping.Store(true)
		_, err := db.MajorCompact(strat, 2+round%2, int64(round))
		swapping.Store(false)
		if err != nil {
			t.Fatalf("round %d: MajorCompact: %v", round, err)
		}
		if image == "" {
			t.Fatalf("round %d: the major compaction wrote no manifest", round)
		}
		if got := countSSTFiles(t, image); got <= sstBefore {
			t.Fatalf("round %d: the crash image holds no merge outputs (%d -> %d .sst files); taken too early", round, sstBefore, got)
		}

		// "Kill" the process: carry on from the crash image.
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		dir = image
		db = open()

		// No data loss: the old manifest still governs.
		model.Check(t, dbReader{db}, m)
		// No orphans: recovery removed the abandoned merge outputs.
		checkNoOrphans(t, dir, db)
	}

	// A compaction with no crash must now leave one table and lose nothing.
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

// TestReopenRemovesWhatFailedRemovalsLeft: a merge whose input files
// cannot be removed still commits, counts each failed removal in
// Stats().CleanupFailures, and leaves the files on disk as orphans; the next
// open's cleanup pass removes them, so only the merged table's file is left.
func TestReopenRemovesWhatFailedRemovalsLeft(t *testing.T) {
	dir := t.TempDir()
	fault := vfs.NewFault(vfs.Default, 1)
	db, err := Open(dir, Options{FS: fault})
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 3; gen++ {
		flushRange(t, db, 0, 100, 1, gen)
	}
	fault.SetPathFilter(func(path string) bool { return strings.HasSuffix(path, ".sst") })
	fault.SetProb(vfs.OpRemove, 1)
	if _, ran, err := db.minorCompact(pickFirstN(3)); err != nil || !ran {
		t.Fatalf("merge: ran=%t, %v", ran, err)
	}
	if got := db.Stats().CleanupFailures; got != 3 {
		t.Errorf("CleanupFailures = %d, want 3", got)
	}
	if got := countSSTFiles(t, dir); got != 4 {
		t.Errorf("%d table files after the merge, want 4: three inputs and the output", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := countSSTFiles(t, dir); got != 1 {
		t.Errorf("%d table files after reopening, want 1", got)
	}
	for i := 0; i < 100; i++ {
		if v, err := db.GetContext(context.Background(), scanKey(i)); err != nil || !bytes.Equal(v, residencyValue(i, 2)) {
			t.Fatalf("Get(%s) = %q, %v after reopening", scanKey(i), v, err)
		}
	}
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
	for op, name := range map[fileOp]string{
		tableCreate:   "no table yet",
		tableSynced:   "table outside the manifest",
		segmentRemove: "segment outlives the manifest save",
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			fault := vfs.NewFault(vfs.Default, 1)
			fault.SetPathFilter(func(path string) bool { return strings.HasPrefix(filepath.Base(path), walPrefix) })
			fsys, reached, release := wedgeFlusher(t, fault, op)
			db, err := Open(dir, Options{FS: fsys, SyncWAL: true, MemtableBytes: 16 << 10})
			if err != nil {
				t.Fatal(err)
			}
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
			if op == segmentRemove {
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
			// Open flushes what it replayed to one table.
			st := db2.Stats()
			wantTables, wantRecords := 1, n+2
			if op == segmentRemove {
				// The first segment's records are in the table the manifest
				// names: replay must pass over them.
				wantTables, wantRecords = 2, after
			}
			if st.Tables != wantTables || st.MemtableKeys != 0 || st.WALRecoveredRecords != wantRecords || st.Flushes != 1 {
				t.Fatalf("after recovery: %d tables, %d memtable keys, %d records replayed, %d flushes; want %d, 0, %d, 1",
					st.Tables, st.MemtableKeys, st.WALRecoveredRecords, st.Flushes, wantTables, wantRecords)
			}
			if segs := walSegments(t, image); len(segs) != 1 {
				t.Fatalf("after recovery the directory holds WAL files %v, want one segment", segs)
			}
		})
	}
}

// TestChaosCrashAtRecoveryPoints kills the store at each file operation of
// the flush Open runs on what it replayed — the table's create and fsync,
// the manifest save naming it, the removal of each replayed segment — and
// reopens every crash image, and the directory the finished recovery left:
// each must hold every acknowledged write and no orphan table, and keep a
// write acknowledged after its own recovery through the next one.
func TestChaosCrashAtRecoveryPoints(t *testing.T) {
	// The WAL spans two segments: the flusher is held before it writes the
	// frozen memtable, and writes go on into the next segment, shadowing
	// keys of the first.
	dir := t.TempDir()
	fsys, reached, release := wedgeFlusher(t, vfs.Default, tableCreate)
	db, err := Open(dir, Options{FS: fsys, SyncWAL: true, MemtableBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	n := fillUntil(t, db, reached, 0, wedgeKey, wedgeVal)
	m := model.New()
	for i := 0; i < n; i++ {
		m.Put(string(wedgeKey(i)), string(wedgeVal(i)))
	}
	if err := db.DeleteContext(context.Background(), wedgeKey(1)); err != nil {
		t.Fatal(err)
	}
	m.Delete(string(wedgeKey(1)))
	if err := db.PutContext(context.Background(), wedgeKey(2), []byte("second segment wins")); err != nil {
		t.Fatal(err)
	}
	m.Put(string(wedgeKey(2)), "second segment wins")
	recovering := crashImage(t, dir)
	release()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if segs := walSegments(t, recovering); len(segs) != 2 {
		t.Fatalf("the directory to recover holds WAL files %v, want two segments", segs)
	}

	var ops []fileOp
	var images []string
	gate := &gateFS{FS: vfs.Default, at: func(op fileOp, _ string) {
		ops = append(ops, op)
		images = append(images, crashImage(t, recovering))
	}}
	db, err = Open(recovering, Options{FS: gate, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	want := []fileOp{tableCreate, tableSynced, manifestCreate, segmentRemove, segmentRemove}
	if !slices.Equal(ops, want) {
		t.Fatalf("Open's recovery reached %v, want %v", ops, want)
	}
	for i, image := range append(images, recovering) {
		for round := 0; round < 2; round++ {
			db, err := Open(image, Options{SyncWAL: true})
			if err != nil {
				t.Fatalf("image %d, round %d: %v", i, round, err)
			}
			model.Check(t, dbReader{db}, m)
			checkNoOrphans(t, image, db)
			if round == 0 {
				if err := db.PutContext(context.Background(), []byte("after recovery"), []byte("1")); err != nil {
					t.Fatal(err)
				}
				m.Put("after recovery", "1")
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
		m.Delete("after recovery") // the next image predates it
	}
}

// TestChaosCloseDuringWedgedFlush: Close called while the flusher is stuck
// mid-flush waits for that flush instead of pulling the files out from under
// it, and reopening finds every acknowledged write — those of the frozen
// memtable, flushed or not, and those after it.
func TestChaosCloseDuringWedgedFlush(t *testing.T) {
	dir := t.TempDir()
	fsys, reached, release := wedgeFlusher(t, vfs.Default, tableSynced)
	db, err := Open(dir, Options{FS: fsys, SyncWAL: true, MemtableBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
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
// leftover wal.log.new — an earlier version's Open killed while re-logging —
// is ignored and removed; a segment that lost its tail — torn, or cut at a
// frame boundary — ends the replay, because the segments after it were
// written after the part that was lost, and a torn segment that lost nothing
// ends nothing.
func TestRecoveryOfOddWALDirectories(t *testing.T) {
	segment := func(t *testing.T, path string, recs ...wal.Record) {
		t.Helper()
		w, err := wal.Create(vfs.Default, path)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			if err := w.AppendBatch([]wal.Record{r}); err != nil {
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
			// An earlier version's Open found the first segment torn,
			// re-logged its prefix into the second and failed before the
			// first was gone; writes acknowledged since are in the second.
			// The stale torn segment must not hide them.
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

// TestRecoveryOfKeyOrderedSegment: an earlier version's Open re-logged the
// memtable it recovered in key order into the next segment, so its sequence
// numbers ascend only per key. What replays from it must still keep each
// key's newest version, tombstones included, and the writes after it must
// be numbered above all of them, not above the last.
func TestRecoveryOfKeyOrderedSegment(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Create(vfs.Default, filepath.Join(dir, "wal.log.000002"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatch([]wal.Record{
		{Op: wal.OpPut, Seq: 4, Key: []byte("a"), Value: []byte("v-a")},
		{Op: wal.OpPut, Seq: 3, Key: []byte("b"), Value: []byte("v-b")},
		{Op: wal.OpDelete, Seq: 5, Key: []byte("c")},
		{Op: wal.OpPut, Seq: 1, Key: []byte("d"), Value: []byte("v-d")},
	}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := "[a=v-a b=v-b d=v-d]"
	for round := 0; round < 2; round++ {
		db, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		if err := db.RangeContext(context.Background(), nil, nil, func(k, v []byte) error {
			got = append(got, string(k)+"="+string(v))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != want {
			t.Fatalf("round %d: recovered %v, want %s", round, got, want)
		}
		// A write after the recovery shadows the re-logged versions.
		if err := db.PutContext(context.Background(), []byte("c"), []byte("v-c")); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		want = "[a=v-a b=v-b c=v-c d=v-d]"
	}
}

// TestOpenKeepsNoStaleSegment: Open flushes what it recovered, and that
// flush removes the segments it replayed. A torn one whose removal fails is
// counted in CleanupFailures and stays behind, harmless: it holds only
// records the table holds, so the next Open skips them and keeps what was
// written after it. A segment past a sequence gap is another matter: left
// behind, it would end the next replay before the writes that follow it, so
// Open fails while it cannot be removed, and no write is acknowledged behind
// the gap.
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
		if got := db.Stats().CleanupFailures; got != uint64(1-round) {
			t.Fatalf("round %d: CleanupFailures = %d, want %d", round, got, 1-round)
		}
		if err := db.PutContext(context.Background(), []byte("acked"), []byte("1")); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		fault.Disable()
	}
	activeSegment(t, dir) // the stale one went with the second recovery

	// A segment replay dropped (it begins after a lost tail) must go before
	// the DB takes a write: left as it is, it would hide that write from the
	// next Open.
	gap := t.TempDir()
	for name, seq := range map[string]uint64{"wal.log.000001": 1, "wal.log.000002": 3} {
		w, err := wal.Create(vfs.Default, filepath.Join(gap, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.AppendBatch([]wal.Record{{Op: wal.OpPut, Seq: seq, Key: []byte(name), Value: []byte("1")}}); err != nil {
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
	for round := 0; round < 2; round++ {
		db, err := Open(gap, Options{FS: fault})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.GetContext(context.Background(), []byte("wal.log.000001")); err != nil {
			t.Fatalf("round %d: record before the gap: %v", round, err)
		}
		if _, err := db.GetContext(context.Background(), []byte("wal.log.000002")); err != ErrNotFound {
			t.Fatalf("round %d: record after the gap: %v, want not found", round, err)
		}
		if _, err := db.GetContext(context.Background(), []byte("acked")); (err == nil) != (round == 1) {
			t.Fatalf("round %d: the write after recovery: %v", round, err)
		}
		if err := db.PutContext(context.Background(), []byte("acked"), []byte("1")); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
