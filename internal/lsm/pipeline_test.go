package lsm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/compaction"
	"repro/internal/model"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// This file tests the group-commit write path: WriteBatch semantics, the
// durability and atomicity of acknowledged batches across simulated
// crashes (WAL truncated at arbitrary offsets), and a -race stress of
// parallel Put/Delete/Write against Get/Scan while flushes and background
// compactions churn the table set.

func TestWriteBatchBasics(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	if err := db.PutContext(context.Background(), []byte("doomed"), []byte("old")); err != nil {
		t.Fatal(err)
	}

	var b WriteBatch
	b.Put([]byte("a"), []byte("1"))
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("doomed"))
	b.Put([]byte("a"), []byte("1b")) // later op in the batch wins
	if b.Len() != 4 || b.Empty() {
		t.Fatalf("Len = %d, Empty = %v", b.Len(), b.Empty())
	}
	if err := db.WriteContext(context.Background(), &b); err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]string{"a": "1b", "b": "2"} {
		got, err := db.GetContext(context.Background(), []byte(key))
		if err != nil || string(got) != want {
			t.Fatalf("Get(%s) = %q, %v; want %q", key, got, err, want)
		}
	}
	if _, err := db.GetContext(context.Background(), []byte("doomed")); !errors.Is(err, ErrNotFound) {
		t.Errorf("batched delete did not apply: %v", err)
	}

	// Reset and reuse the same batch.
	b.Reset()
	if b.Len() != 0 || !b.Empty() {
		t.Fatalf("after Reset: Len = %d", b.Len())
	}
	b.Put([]byte("c"), []byte("3"))
	if err := db.WriteContext(context.Background(), &b); err != nil {
		t.Fatal(err)
	}
	if got, err := db.GetContext(context.Background(), []byte("c")); err != nil || string(got) != "3" {
		t.Fatalf("Get(c) = %q, %v", got, err)
	}

	// Empty batches and nil batches are no-ops; empty keys reject the
	// whole batch with nothing applied.
	if err := db.WriteContext(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	var empty WriteBatch
	if err := db.WriteContext(context.Background(), &empty); err != nil {
		t.Fatal(err)
	}
	var bad WriteBatch
	bad.Put([]byte("good"), []byte("v"))
	bad.Put(nil, []byte("v"))
	if err := db.WriteContext(context.Background(), &bad); err == nil {
		t.Fatal("batch with empty key accepted")
	}
	if _, err := db.GetContext(context.Background(), []byte("good")); !errors.Is(err, ErrNotFound) {
		t.Errorf("rejected batch partially applied: %v", err)
	}
}

func TestGroupCommitStats(t *testing.T) {
	db, err := Open(t.TempDir(), Options{SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 5; i++ {
		if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var b WriteBatch
	for i := 0; i < 7; i++ {
		b.Put([]byte(fmt.Sprintf("b%d", i)), []byte("v"))
	}
	if err := db.WriteContext(context.Background(), &b); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.GroupedWrites != 12 {
		t.Errorf("GroupedWrites = %d, want 12", st.GroupedWrites)
	}
	if st.GroupCommits != 6 {
		t.Errorf("GroupCommits = %d, want 6 (sequential writers form groups of one batch)", st.GroupCommits)
	}
	if st.WALSyncs != st.GroupCommits {
		t.Errorf("WALSyncs = %d, want one per group (%d)", st.WALSyncs, st.GroupCommits)
	}
}

// batchTag extracts the "g..b.." batch tag from a crash-test key.
func batchTag(key []byte) string {
	s := string(key)
	if i := strings.IndexByte(s, '-'); i >= 0 {
		return s[:i]
	}
	return s
}

// TestGroupCommitCrashRecovery is the durability property test for the
// pipeline: 8 concurrent sync writers commit tagged batches, then the WAL
// is truncated at arbitrary offsets to simulate crashes mid-write. Every
// recovery must be the model's prefix check: no batch partially applied,
// and a prefix-closed set of batches in WAL commit order. The untruncated
// log must recover every acknowledged batch, and Stats must report
// truncated recoveries.
func TestGroupCommitCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{SyncWAL: true, MemtableBytes: 256 << 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		batches = 25
		keysPer = 3
	)
	var wg sync.WaitGroup
	var writeErr atomic.Value
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var b WriteBatch
			for bi := 0; bi < batches; bi++ {
				b.Reset()
				tag := fmt.Sprintf("g%02db%03d", g, bi)
				for j := 0; j < keysPer; j++ {
					b.Put([]byte(fmt.Sprintf("%s-k%d", tag, j)), []byte(tag))
				}
				if err := db.WriteContext(context.Background(), &b); err != nil {
					writeErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err, _ := writeErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	walPath := activeSegment(t, dir)
	walData, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}

	// Recover the batch commit order straight from the log: a batch's
	// records are contiguous, and its keys share its tag. The model's value
	// is the tag the writers put, not the logged one, so a value the log
	// got wrong still fails the check.
	m, batch, logged := model.New(), []model.Op(nil), 0
	if _, err := wal.Replay(vfs.Default, walPath, func(r wal.Record) error {
		if len(batch) > 0 && batchTag(r.Key) != batchTag([]byte(batch[0].Key)) {
			m.Apply(batch...)
			batch, logged = nil, logged+1
		}
		batch = append(batch, model.Op{Key: string(r.Key), Value: batchTag(r.Key)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	m.Apply(batch...)
	if logged++; logged != writers*batches {
		t.Fatalf("full log holds %d batches, want %d", logged, writers*batches)
	}

	// Crash-recover at the full length, at arbitrary offsets, and at zero.
	rng := rand.New(rand.NewSource(42))
	cuts := []int{len(walData), 0}
	for i := 0; i < 25; i++ {
		cuts = append(cuts, rng.Intn(len(walData)))
	}
	for _, cut := range cuts {
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, "wal.log"), walData[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		db2, err := Open(cdir, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		// Whole batches, a prefix of the commit order, and every one of
		// them from the intact log.
		n := m.Prefix(t, dbReader{db2})
		if cut == len(walData) && n != logged {
			t.Fatalf("full log recovered %d/%d acknowledged batches", n, logged)
		}
		// Observability: a cut that doesn't land on a frame boundary must
		// be reported as a truncated recovery.
		st := db2.Stats()
		if st.WALRecoveredBytes != int64(cut) && !st.WALRecoveryTruncated {
			t.Fatalf("cut %d: recovered %d bytes mid-frame but truncation not reported: %+v",
				cut, st.WALRecoveredBytes, st)
		}
		if st.WALRecoveredRecords != keysPer*n {
			t.Fatalf("cut %d: WALRecoveredRecords = %d, want %d", cut, st.WALRecoveredRecords, keysPer*n)
		}
		db2.Close()
	}
}

// TestRecoveryRelogsLargeMemtable reopens a store whose unflushed
// memtable exceeds the WAL's 64 MiB frame limit; Open's re-log must chunk
// by bytes (not just record count) or recovery would fail with
// ErrBatchTooLarge and the store would be unopenable after a crash.
func TestRecoveryRelogsLargeMemtable(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{MemtableBytes: 256 << 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	val := bytes.Repeat([]byte("v"), 2<<20)
	const n = 40 // 80 MiB unflushed: over MaxFrameBytes in aggregate
	for i := 0; i < n; i++ {
		if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("big-%03d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(dir, Options{MemtableBytes: 256 << 20, Seed: 6})
	if err != nil {
		t.Fatalf("reopen with large unflushed memtable: %v", err)
	}
	defer db.Close()
	st := db.Stats()
	if st.WALRecoveredRecords != n || st.WALRecoveryTruncated {
		t.Fatalf("recovery stats = %+v, want %d records, not truncated", st, n)
	}
	for _, i := range []int{0, n / 2, n - 1} {
		got, err := db.GetContext(context.Background(), []byte(fmt.Sprintf("big-%03d", i)))
		if err != nil || !bytes.Equal(got, val) {
			t.Fatalf("big-%03d: len=%d, %v", i, len(got), err)
		}
	}
}

// TestBatchVisibilityAtomic scans concurrently with batch commits that
// always write the same value to two keys; a scan snapshot must never
// observe the keys out of step.
func TestBatchVisibilityAtomic(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	var b WriteBatch
	b.Put([]byte("x"), []byte("0"))
	b.Put([]byte("y"), []byte("0"))
	if err := db.WriteContext(context.Background(), &b); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	var writerErr error
	go func() {
		defer close(done)
		var wb WriteBatch
		for i := 1; i <= 2000; i++ {
			wb.Reset()
			v := []byte(fmt.Sprint(i))
			wb.Put([]byte("x"), v)
			wb.Put([]byte("y"), v)
			if err := db.WriteContext(context.Background(), &wb); err != nil {
				writerErr = err
				return
			}
		}
	}()

	for alive := true; alive; {
		select {
		case <-done:
			alive = false
		default:
		}
		var x, y []byte
		err := db.RangeContext(context.Background(), nil, nil, func(k, v []byte) error {
			switch string(k) {
			case "x":
				x = append([]byte(nil), v...)
			case "y":
				y = append([]byte(nil), v...)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Fatalf("torn batch visible: x=%q y=%q", x, y)
		}
	}
	if writerErr != nil {
		t.Fatal(writerErr)
	}
}

// TestPipelineStressDuringFlushes hammers the commit pipeline with mixed
// Put/Delete/WriteBatch writers while readers and scanners run and a tiny
// memtable forces constant flushes, with minor merges overlapping them —
// the -race harness for the lock-shedding commit path.
func TestPipelineStressDuringFlushes(t *testing.T) {
	db, err := Open(t.TempDir(), Options{
		MemtableBytes: 8 << 10,
		// A merge at every second table: the run may flush only three times.
		AutoCompact: tuned(2, compaction.Threshold{MaxTables: 2}),
		Seed:        11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const (
		writers      = 4
		opsPerWriter = 200
		keysPer      = 50
	)
	var (
		wg      sync.WaitGroup
		auxWG   sync.WaitGroup
		stop    atomic.Bool
		testErr atomic.Value
	)
	fail := func(err error) { testErr.CompareAndSwap(nil, err) }

	m := model.New()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One write in seven is a batch, one op in seven a delete; the
			// padding makes the workload span many flushes.
			mix := model.Mix{Prefix: fmt.Sprintf("w%d-", w), Keys: keysPer, Delete: 1.0 / 7, Batch: 1.0 / 7, Pad: 100}
			for _, op := range model.Stream(int64(w), opsPerWriter, mix) {
				if err := write(db, op); err != nil {
					fail(fmt.Errorf("writer %d: %w", w, err))
					return
				}
				m.Apply(op...)
			}
		}(w)
	}

	for r := 0; r < 2; r++ {
		auxWG.Add(1)
		go func(r int) {
			defer auxWG.Done()
			for i := 0; !stop.Load(); i++ {
				key := fmt.Sprintf("w%d-key-%04d", i%writers, i%keysPer)
				if _, err := db.GetContext(context.Background(), []byte(key)); err != nil && !errors.Is(err, ErrNotFound) {
					fail(fmt.Errorf("reader %d: %w", r, err))
					return
				}
			}
		}(r)
	}
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		for !stop.Load() {
			prev := ""
			err := db.RangeContext(context.Background(), nil, nil, func(k, v []byte) error {
				if string(k) <= prev {
					return fmt.Errorf("scan out of order: %q after %q", k, prev)
				}
				prev = string(k)
				return nil
			})
			if err != nil {
				fail(fmt.Errorf("scanner: %w", err))
				return
			}
		}
	}()

	wg.Wait()
	stop.Store(true)
	auxWG.Wait()
	if err, _ := testErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	st := db.Stats()
	if st.Flushes == 0 {
		t.Error("stress never flushed: memtable threshold not exercised")
	}
	if st.MinorCompactions == 0 {
		t.Error("stress never merged: no minor compaction overlapped the reads")
	}
	model.Check(t, dbReader{db}, m)
}
