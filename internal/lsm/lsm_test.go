package lsm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/kverr"
	"repro/internal/model"
	"repro/internal/sstable"
)

func openTestDB(t testing.TB, opts Options) *DB {
	t.Helper()
	db, err := Open(t.TempDir(), opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// dbReader reads a DB for model.Check, with ErrNotFound as not found.
type dbReader struct{ *DB }

func (r dbReader) Get(key []byte) ([]byte, bool, error) {
	v, err := r.GetContext(context.Background(), key)
	if errors.Is(err, ErrNotFound) {
		return nil, false, nil
	}
	return v, err == nil, err
}

func (r dbReader) Scan(start, end []byte, fn func(key, value []byte) error) error {
	return r.RangeContext(context.Background(), start, end, fn)
}

// write commits one write of a model.Stream: a put, a delete, or a batch.
func write(db *DB, w []model.Op) error {
	ctx := context.Background()
	switch {
	case len(w) == 1 && w[0].Delete:
		return db.DeleteContext(ctx, []byte(w[0].Key))
	case len(w) == 1:
		return db.PutContext(ctx, []byte(w[0].Key), []byte(w[0].Value))
	}
	var b WriteBatch
	for _, op := range w {
		if op.Delete {
			b.Delete([]byte(op.Key))
		} else {
			b.Put([]byte(op.Key), []byte(op.Value))
		}
	}
	return db.WriteContext(ctx, &b)
}

func TestPutGetDelete(t *testing.T) {
	db := openTestDB(t, Options{})
	if err := db.PutContext(context.Background(), []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	got, err := db.GetContext(context.Background(), []byte("k"))
	if err != nil || string(got) != "v1" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if err := db.PutContext(context.Background(), []byte("k"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, _ = db.GetContext(context.Background(), []byte("k"))
	if string(got) != "v2" {
		t.Errorf("overwrite lost: %q", got)
	}
	if err := db.DeleteContext(context.Background(), []byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetContext(context.Background(), []byte("k")); err != ErrNotFound {
		t.Errorf("deleted key Get err = %v", err)
	}
	if _, err := db.GetContext(context.Background(), []byte("never")); err != ErrNotFound {
		t.Errorf("missing key Get err = %v", err)
	}
	if err := db.PutContext(context.Background(), nil, []byte("v")); err == nil {
		t.Errorf("empty key accepted")
	}
}

func TestGetAcrossFlush(t *testing.T) {
	db := openTestDB(t, Options{MemtableBytes: 1 << 16})
	const n = 2000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		if err := db.PutContext(context.Background(), k, bytes.Repeat([]byte("v"), 50)); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.Tables == 0 {
		t.Fatalf("expected flushes, stats = %+v", st)
	}
	for i := 0; i < n; i += 97 {
		k := []byte(fmt.Sprintf("key-%06d", i))
		if _, err := db.GetContext(context.Background(), k); err != nil {
			t.Fatalf("Get(%s) after flush: %v", k, err)
		}
	}
}

func TestDeleteShadowsFlushedValue(t *testing.T) {
	db := openTestDB(t, Options{})
	if err := db.PutContext(context.Background(), []byte("k"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteContext(context.Background(), []byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetContext(context.Background(), []byte("k")); err != ErrNotFound {
		t.Errorf("tombstone in memtable should shadow sstable value: %v", err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetContext(context.Background(), []byte("k")); err != ErrNotFound {
		t.Errorf("tombstone in sstable should shadow older sstable: %v", err)
	}
}

func TestScan(t *testing.T) {
	db := openTestDB(t, Options{})
	for i := 0; i < 100; i++ {
		if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
		if i%30 == 29 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.DeleteContext(context.Background(), []byte("k050")); err != nil {
		t.Fatal(err)
	}
	var keys []string
	err := db.RangeContext(context.Background(), nil, nil, func(k, v []byte) error {
		keys = append(keys, string(k))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 99 {
		t.Errorf("scanned %d keys, want 99", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("scan out of order at %q", keys[i])
		}
	}
	for _, k := range keys {
		if k == "k050" {
			t.Errorf("deleted key appeared in scan")
		}
	}
}

func TestRange(t *testing.T) {
	db := openTestDB(t, Options{})
	for i := 0; i < 100; i++ {
		if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
		if i%25 == 24 {
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.DeleteContext(context.Background(), []byte("k030")); err != nil {
		t.Fatal(err)
	}
	var keys []string
	err := db.RangeContext(context.Background(), []byte("k020"), []byte("k040"), func(k, v []byte) error {
		keys = append(keys, string(k))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 19 { // k020..k039 minus deleted k030
		t.Fatalf("range returned %d keys: %v", len(keys), keys)
	}
	if keys[0] != "k020" || keys[len(keys)-1] != "k039" {
		t.Errorf("range bounds wrong: %v ... %v", keys[0], keys[len(keys)-1])
	}
	for _, k := range keys {
		if k == "k030" {
			t.Errorf("deleted key in range")
		}
	}
	// Unbounded variants.
	n := 0
	if err := db.RangeContext(context.Background(), nil, nil, func(k, v []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 99 {
		t.Errorf("full range = %d keys, want 99", n)
	}
	n = 0
	if err := db.RangeContext(context.Background(), []byte("k090"), nil, func(k, v []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Errorf("open-ended range = %d keys, want 10", n)
	}
}

func TestWALRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("k%02d", i)), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.DeleteContext(context.Background(), []byte("k07")); err != nil {
		t.Fatal(err)
	}
	// Simulate crash: close file handles without flushing memtable.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	got, err := db2.GetContext(context.Background(), []byte("k42"))
	if err != nil || string(got) != "42" {
		t.Errorf("recovered Get(k42) = %q, %v", got, err)
	}
	if _, err := db2.GetContext(context.Background(), []byte("k07")); err != ErrNotFound {
		t.Errorf("recovered delete lost: %v", err)
	}
	// Sequence numbers must keep increasing after recovery: a new write
	// must shadow recovered ones.
	if err := db2.PutContext(context.Background(), []byte("k42"), []byte("new")); err != nil {
		t.Fatal(err)
	}
	got, _ = db2.GetContext(context.Background(), []byte("k42"))
	if string(got) != "new" {
		t.Errorf("post-recovery write lost: %q", got)
	}
}

func TestRecoveryAfterFlushAndRestart(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutContext(context.Background(), []byte("flushed"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.PutContext(context.Background(), []byte("unflushed"), []byte("2")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	for _, k := range []string{"flushed", "unflushed"} {
		if _, err := db2.GetContext(context.Background(), []byte(k)); err != nil {
			t.Errorf("Get(%s) after restart: %v", k, err)
		}
	}
}

func TestClosedDBErrors(t *testing.T) {
	db := openTestDB(t, Options{})
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := db.PutContext(context.Background(), []byte("k"), []byte("v")); err != ErrClosed {
		t.Errorf("Put on closed = %v", err)
	}
	if _, err := db.GetContext(context.Background(), []byte("k")); err != ErrClosed {
		t.Errorf("Get on closed = %v", err)
	}
	if err := db.RangeContext(context.Background(), nil, nil, func(k, v []byte) error { return nil }); err != ErrClosed {
		t.Errorf("Scan on closed = %v", err)
	}
	if err := db.Close(); err != ErrClosed {
		t.Errorf("double Close = %v", err)
	}
	if _, err := db.MajorCompact("SI", 2, 0); err != ErrClosed {
		t.Errorf("MajorCompact on closed = %v", err)
	}
}

// fillTables loads the store so that several sstables exist, with
// overlapping keys across tables, and returns the model of what it wrote.
func fillTables(t *testing.T, db *DB, tables, keysPerTable int) *model.Model {
	t.Helper()
	want := model.New()
	r := rand.New(rand.NewSource(1))
	for tab := 0; tab < tables; tab++ {
		for i := 0; i < keysPerTable; i++ {
			// Half fresh keys, half overwrites of a shared range.
			var k string
			if i%2 == 0 {
				k = fmt.Sprintf("shared-%04d", r.Intn(keysPerTable))
			} else {
				k = fmt.Sprintf("t%02d-%04d", tab, i)
			}
			v := fmt.Sprintf("v-%d-%d", tab, i)
			if err := db.PutContext(context.Background(), []byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			want.Put(k, v)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

func TestMajorCompactStrategies(t *testing.T) {
	for _, strat := range []string{"SI", "SO", "BT(I)", "BT(O)", "RANDOM"} {
		t.Run(strat, func(t *testing.T) {
			db := openTestDB(t, Options{})
			want := fillTables(t, db, 6, 200)
			before := db.Stats()
			if before.Tables != 6 {
				t.Fatalf("tables before = %d", before.Tables)
			}
			res, err := db.MajorCompact(strat, 2, 1)
			if err != nil {
				t.Fatalf("MajorCompact: %v", err)
			}
			if got := db.Stats().Tables; got != 1 {
				t.Errorf("tables after = %d, want 1", got)
			}
			if res.TablesBefore != 6 || len(res.StepStats) != 5 {
				t.Errorf("result = %+v", res)
			}
			if res.BytesRead == 0 || res.BytesWritten == 0 || res.CostSimple == 0 {
				t.Errorf("zero I/O recorded: %+v", res)
			}
			model.Check(t, dbReader{db}, want)
		})
	}
}

func TestMajorCompactPurgesTombstones(t *testing.T) {
	db := openTestDB(t, Options{})
	for i := 0; i < 100; i++ {
		if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("k%03d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := db.DeleteContext(context.Background(), []byte(fmt.Sprintf("k%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.MajorCompact("SI", 2, 0); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := db.RangeContext(context.Background(), nil, nil, func(k, v []byte) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 50 {
		t.Errorf("post-compaction live keys = %d, want 50", n)
	}
	// Deleted keys must stay deleted.
	if _, err := db.GetContext(context.Background(), []byte("k000")); err != ErrNotFound {
		t.Errorf("tombstoned key resurfaced: %v", err)
	}
	// On-disk garbage must be gone: only one sstable file remains.
	files, err := filepath.Glob(filepath.Join(db.dir, "*.sst"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Errorf("sst files on disk = %d, want 1 (%v)", len(files), files)
	}
}

func TestTombstoneSurvivesIntermediateMerges(t *testing.T) {
	// Regression test: a tombstone must not be dropped by an intermediate
	// merge that does not include the table holding the shadowed value.
	// Layout: a large old table holds key X; two small tables (one of them
	// carrying the tombstone for X) merge together first under SI; only
	// the final root merge sees X's old value.
	db := openTestDB(t, Options{})
	// Large oldest table with X.
	if err := db.PutContext(context.Background(), []byte("x-key"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("big-%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Small disjoint table.
	for i := 0; i < 10; i++ {
		if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("small-%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Small newest table with the tombstone.
	if err := db.DeleteContext(context.Background(), []byte("x-key")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("tiny-%02d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.MajorCompact("SI", 2, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := db.GetContext(context.Background(), []byte("x-key")); err != ErrNotFound {
		t.Errorf("deleted key resurfaced after compaction: %v", err)
	}
	// Live keys intact.
	if _, err := db.GetContext(context.Background(), []byte("big-0001")); err != nil {
		t.Errorf("live key lost: %v", err)
	}
}

func TestMajorCompactKWay(t *testing.T) {
	db := openTestDB(t, Options{})
	fillTables(t, db, 9, 100)
	res, err := db.MajorCompact("SI", 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// 9 tables with k=4: steps of fan-in ≤ 4, (9-1)/3 = 3 steps (4,4,2... )
	if len(res.StepStats) >= 8 {
		t.Errorf("k=4 used %d steps, expected fewer than binary's 8", len(res.StepStats))
	}
	if db.Stats().Tables != 1 {
		t.Errorf("tables after = %d", db.Stats().Tables)
	}
}

// TestMajorCompactResultPinned pins what a BT(I) k=4 major compaction of
// five overlapping flushes does — the tables lsmdb's "fill 3000/2000/2500/
// 100/4000, flush after each" script leaves — down to the merge count, the
// measured cost in keys and the bytes it writes.
func TestMajorCompactResultPinned(t *testing.T) {
	db := openTestDB(t, Options{})
	for _, n := range []int{3000, 2000, 2500, 100, 4000} {
		for i := 0; i < n; i++ {
			if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("key-%08d", i)), []byte(fmt.Sprintf("value-%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.MajorCompact("BT(I)", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := [4]uint64{uint64(len(res.StepStats)), uint64(res.CostActual), res.BytesWritten, uint64(res.TablesAfter)}
	if want := [4]uint64{2, 21600, 153307, 1}; got != want {
		t.Errorf("merges, CostActual, BytesWritten, TablesAfter = %v, want %v", got, want)
	}
}

func TestMajorCompactTrivialCases(t *testing.T) {
	db := openTestDB(t, Options{})
	// Empty store.
	res, err := db.MajorCompact("SI", 2, 0)
	if err != nil || res.TablesBefore != 0 {
		t.Errorf("empty compact = %+v, %v", res, err)
	}
	// Single table.
	if err := db.PutContext(context.Background(), []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	res, err = db.MajorCompact("SI", 2, 0)
	if err != nil || res.TablesBefore > 1 || len(res.StepStats) != 0 {
		t.Errorf("single-table compact = %+v, %v", res, err)
	}
	// Unknown strategy.
	fillTables(t, db, 3, 50)
	if _, err := db.MajorCompact("nope", 2, 0); !errors.Is(err, kverr.ErrConfig) {
		t.Errorf("unknown strategy: %v, want ErrConfig", err)
	}
}

// TestCompactionResultAddDropsNothing: Add into a zero result returns its
// argument, every field but Strategy (the receiver's) filled with its own
// value; a second Add doubles the counts and keeps the slower Duration.
func TestCompactionResultAddDropsNothing(t *testing.T) {
	var want CompactionResult
	v := reflect.ValueOf(&want).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, n := v.Field(i), i+1
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(n))
		case reflect.Uint64:
			f.SetUint(uint64(n))
		case reflect.Slice:
			f.Set(reflect.ValueOf([]sstable.MergeStats{{BytesRead: uint64(n), EntriesOut: 1}}))
		case reflect.String:
		default:
			t.Fatalf("CompactionResult.%s: no test value for a %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	var sum CompactionResult
	sum.Add(&want)
	if !reflect.DeepEqual(sum, want) {
		t.Fatalf("Add into a zero result = %+v, want %+v", sum, want)
	}
	sum.Add(&want)
	if sum.CostActual != 2*want.CostActual || len(sum.StepStats) != 2 || sum.Duration != want.Duration {
		t.Errorf("second Add = %+v", sum)
	}
}

func TestCompactionCostActualMatchesBytesShape(t *testing.T) {
	// The abstract costactual (keys) and the measured disk I/O (bytes)
	// must be strongly correlated: that is the premise of the paper's cost
	// model (Section 5.4). With fixed-size values, bytes ≈ costactual ×
	// entry size + framing overhead, so the ratio across two runs of
	// different sizes should be within a loose band.
	db := openTestDB(t, Options{})
	fillTables(t, db, 4, 100)
	resSmall, err := db.MajorCompact("SI", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	db2 := openTestDB(t, Options{})
	fillTables(t, db2, 8, 400)
	resBig, err := db2.MajorCompact("SI", 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	rSmall := float64(resSmall.TotalIO()) / float64(resSmall.CostActual)
	rBig := float64(resBig.TotalIO()) / float64(resBig.CostActual)
	if rSmall <= 0 || rBig <= 0 {
		t.Fatalf("degenerate ratios %v %v", rSmall, rBig)
	}
	if ratio := rSmall / rBig; ratio < 0.5 || ratio > 2 {
		t.Errorf("bytes-per-key ratio drifted: small=%.2f big=%.2f", rSmall, rBig)
	}
}

func TestReopenAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := fillTables(t, db, 4, 100)
	if _, err := db.MajorCompact("BT(I)", 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	model.Check(t, dbReader{db2}, want)
}

func TestCorruptManifestRejected(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("garbage line\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Errorf("corrupt manifest accepted")
	}
}

func TestManifestBadFields(t *testing.T) {
	for _, content := range []string{
		"next-file notanumber\n",
		"next-seq -3\n",
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, Options{}); err == nil {
			t.Errorf("manifest %q accepted", content)
		}
	}
}

func TestOpenMissingTableFile(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutContext(context.Background(), []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	infos := db.TableInfos()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Delete the sstable the manifest references: Open must fail loudly
	// rather than silently dropping data.
	if err := os.Remove(filepath.Join(dir, infos[0].Name)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Errorf("Open succeeded with a missing sstable")
	}
}

func TestOpenCorruptTableFile(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutContext(context.Background(), []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	infos := db.TableInfos()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, infos[0].Name)
	if err := os.WriteFile(path, []byte("not an sstable"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Errorf("Open succeeded with a corrupt sstable")
	}
}

// TestOpenRefusesOldFormatTable: a directory holding a table written before
// the single table format — its footer magic "STBL003F" — fails to open with
// ErrCorrupt naming the file, as a missing table does, rather than open and
// let the table's filter, probed the current way, deny keys it holds.
func TestOpenRefusesOldFormatTable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutContext(context.Background(), []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	name := db.TableInfos()[0].Name
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data[len(data)-8:], "F300LBTS") // "STBL003F", little-endian
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir, Options{})
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), name) {
		t.Fatalf("Open with an STBL003F table: err = %v, want ErrCorrupt naming %s", err, name)
	}
}

// TestAllocFilterFalsePositivesAtDesignRate: over keys shaped like the
// benchmark harness's — "user" + 16 hex digits — in several flushed tables,
// Gets of absent keys pass each table's filter at its 1 % design rate,
// counted by the FilterFalsePositives and FilterNegatives statistics the
// benchmark's sstable.filter_fp_rate reads. Without the finaliser on the
// filter's probes it measures about 4.5 %.
func TestAllocFilterFalsePositivesAtDesignRate(t *testing.T) {
	db := openTestDB(t, Options{MemtableBytes: 64 << 20})
	ctx := context.Background()
	key := func(id uint64) []byte { return []byte(fmt.Sprintf("user%016x", id)) }
	rng := rand.New(rand.NewSource(35))
	present := make(map[uint64]bool)
	for table := 0; table < 4; table++ {
		for i := 0; i < 5000; i++ {
			id := rng.Uint64()
			present[id] = true
			if err := db.PutContext(ctx, key(id), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if n := db.Stats().Tables; n < 4 {
		t.Fatalf("%d tables, want 4", n)
	}
	for probes := 0; probes < 20000; {
		id := rng.Uint64()
		if present[id] {
			continue
		}
		if _, err := db.GetContext(ctx, key(id)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(absent): %v", err)
		}
		probes++
	}
	st := db.Stats()
	rate := float64(st.FilterFalsePositives) / float64(st.FilterFalsePositives+st.FilterNegatives)
	t.Logf("%d false positives, %d negatives: %.2f%%", st.FilterFalsePositives, st.FilterNegatives, 100*rate)
	if st.FilterNegatives < 20000 || rate > 0.015 {
		t.Errorf("filter false-positive rate %.2f%% over %d filter probes, bound 1.5%%", 100*rate, st.FilterFalsePositives+st.FilterNegatives)
	}
}

func TestBlockCacheServesRepeatedReads(t *testing.T) {
	db := openTestDB(t, Options{BlockCacheBytes: 1 << 20})
	for i := 0; i < 2000; i++ {
		if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("key-%06d", i)), bytes.Repeat([]byte("v"), 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		for i := 0; i < 2000; i += 50 {
			if _, err := db.GetContext(context.Background(), []byte(fmt.Sprintf("key-%06d", i))); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := db.Stats()
	if st.BlockCacheHits == 0 {
		t.Errorf("no cache hits recorded: %+v", st)
	}
	if st.BlockCacheHits < st.BlockCacheMisses {
		t.Errorf("hit rate below 50%% on a repeating read pattern: %d hits / %d misses",
			st.BlockCacheHits, st.BlockCacheMisses)
	}
}

func TestBlockCacheDisabled(t *testing.T) {
	db := openTestDB(t, Options{BlockCacheBytes: -1})
	if err := db.PutContext(context.Background(), []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := db.GetContext(context.Background(), []byte("k")); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.BlockCacheHits != 0 || st.BlockCacheMisses != 0 {
		t.Errorf("disabled cache recorded traffic: %+v", st)
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	db := openTestDB(t, Options{MemtableBytes: 1 << 14})
	done := make(chan error, 4)
	for w := 0; w < 2; w++ {
		go func(w int) {
			for i := 0; i < 500; i++ {
				if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("w%d-%04d", w, i)), []byte("v")); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(w)
	}
	for r := 0; r < 2; r++ {
		go func() {
			for i := 0; i < 500; i++ {
				if _, err := db.GetContext(context.Background(), []byte(fmt.Sprintf("w0-%04d", i))); err != nil && err != ErrNotFound {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
