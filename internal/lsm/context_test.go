package lsm

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/vfs"
)

// openStalled opens a DB whose flusher wedges before it writes its first
// table and has one write rotate the memtable into it, so the next write
// that fills a memtable waits for the flusher until release is called.
// MemtableBytes 1 makes every write fill a memtable.
func openStalled(t *testing.T) (*DB, func()) {
	t.Helper()
	fsys, reached, release := wedgeFlusher(t, vfs.Default, tableCreate)
	db := openTestDB(t, Options{MemtableBytes: 1, FS: fsys})
	if err := db.PutContext(context.Background(), []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	<-reached
	return db, release
}

// waitForStall blocks until the DB reports at least one write stall, or
// fails the test after a timeout.
func waitForStall(t *testing.T, db *DB) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if db.Stats().WriteStalls >= 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no write stall observed")
}

// TestWriteContextCancelDuringStall wedges the flusher, has a writer fill
// the next memtable and wait for it, and cancels the waiting writer's
// context: the write must return promptly with an error that is both
// ErrStalled and context.Canceled (the write itself is durable; only the
// wait was abandoned), and the next commit rotates the memtable it left.
func TestWriteContextCancelDuringStall(t *testing.T) {
	db, release := openStalled(t)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- db.PutContext(ctx, []byte("c"), []byte("3")) }()
	waitForStall(t, db)
	cancel()

	select {
	case err := <-errc:
		if !errors.Is(err, ErrStalled) {
			t.Errorf("stalled write returned %v, want ErrStalled", err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Errorf("stalled write returned %v, want context.Canceled wrapped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled stalled write did not return")
	}

	// The write is durable despite the error: release the flusher and
	// confirm the key is there, and that the next write rotates the
	// memtable the cancelled leader left full.
	release()
	if v, err := db.GetContext(context.Background(), []byte("c")); err != nil || string(v) != "3" {
		t.Fatalf("Get(c) after abandoned stall = %q, %v", v, err)
	}
	if err := db.PutContext(context.Background(), []byte("d"), []byte("4")); err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	rotations := db.rotations
	db.mu.RUnlock()
	if rotations != 2 {
		t.Errorf("rotations = %d after the write that followed the abandoned wait, want 2", rotations)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteContextCancelParkedInQueue blocks the pipeline (leader waiting
// for the wedged flusher) and parks a second writer in the commit queue;
// cancelling the parked writer must release it promptly with
// context.Canceled, without committing its batch.
func TestWriteContextCancelParkedInQueue(t *testing.T) {
	db, release := openStalled(t)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	leaderErr := make(chan error, 1)
	go func() { leaderErr <- db.PutContext(leaderCtx, []byte("c"), []byte("3")) }()
	waitForStall(t, db)

	// The leader is stalled and has not popped the queue; this writer
	// parks behind it.
	parkedCtx, cancelParked := context.WithCancel(context.Background())
	parkedErr := make(chan error, 1)
	go func() { parkedErr <- db.PutContext(parkedCtx, []byte("d"), []byte("4")) }()
	deadline := time.Now().Add(10 * time.Second)
	for {
		db.commitMu.Lock()
		parked := len(db.commitQueue) >= 2
		db.commitMu.Unlock()
		if parked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("second writer never parked in the commit queue")
		}
		time.Sleep(time.Millisecond)
	}

	cancelParked()
	select {
	case err := <-parkedErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("parked write returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled parked write did not return while pipeline blocked")
	}
	// Its slot is released: the queue is back to the leader alone.
	db.commitMu.Lock()
	qlen := len(db.commitQueue)
	db.commitMu.Unlock()
	if qlen != 1 {
		t.Errorf("commit queue length = %d after abandonment, want 1", qlen)
	}

	cancelLeader()
	select {
	case err := <-leaderErr:
		if !errors.Is(err, ErrStalled) || !errors.Is(err, context.Canceled) {
			t.Errorf("stalled leader returned %v, want ErrStalled wrapping context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled stalled leader did not return")
	}
	release()
	// The abandoned write must not have been committed.
	if _, err := db.GetContext(context.Background(), []byte("d")); !errors.Is(err, ErrNotFound) {
		t.Errorf("abandoned write visible: Get(d) err = %v, want ErrNotFound", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteContextPreCancelled: an already-expired context fails fast
// without touching the pipeline or the store.
func TestWriteContextPreCancelled(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := db.PutContext(ctx, []byte("k"), []byte("v")); !errors.Is(err, context.Canceled) {
		t.Errorf("PutContext(cancelled) = %v, want context.Canceled", err)
	}
	if _, err := db.GetContext(ctx, []byte("k")); !errors.Is(err, context.Canceled) {
		t.Errorf("GetContext(cancelled) = %v, want context.Canceled", err)
	}
	if _, err := db.GetContext(context.Background(), []byte("k")); !errors.Is(err, ErrNotFound) {
		t.Errorf("cancelled write leaked into the store: %v", err)
	}
}

// TestRangeContextCancelled: a scan loop observes cancellation mid-drain.
func TestRangeContextCancelled(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 2000; i++ {
		if err := db.PutContext(context.Background(), []byte{byte(i >> 8), byte(i)}, []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	seen := 0
	err = db.RangeContext(ctx, nil, nil, func(k, v []byte) error {
		seen++
		if seen == 100 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("RangeContext = %v after mid-scan cancel, want context.Canceled", err)
	}
	if seen >= 2000 {
		t.Errorf("scan drained all %d entries despite cancellation", seen)
	}
}

// TestWriteBatchTooLarge: an over-cap batch is rejected up front with the
// typed sentinel on both the DB and its batch path.
func TestWriteBatchTooLarge(t *testing.T) {
	db, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var b WriteBatch
	b.Put([]byte("k"), make([]byte, MaxBatchBytes+1))
	if err := db.WriteContext(context.Background(), &b); !errors.Is(err, ErrBatchTooLarge) {
		t.Errorf("oversized Write = %v, want ErrBatchTooLarge", err)
	}
	if _, err := db.GetContext(context.Background(), []byte("k")); !errors.Is(err, ErrNotFound) {
		t.Errorf("rejected batch leaked: %v", err)
	}
}

// TestSnapshotIsolation: a snapshot's view survives writes, deletes,
// flushes and a major compaction that happen after acquisition.
func TestSnapshotIsolation(t *testing.T) {
	db, err := Open(t.TempDir(), Options{MemtableBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 100; i++ {
		if err := db.PutContext(context.Background(), []byte{byte(i)}, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.PutContext(context.Background(), []byte{200}, []byte("memtable")); err != nil {
		t.Fatal(err)
	}

	snap, err := db.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()

	// Mutate heavily after the snapshot.
	if err := db.DeleteContext(context.Background(), []byte{10}); err != nil {
		t.Fatal(err)
	}
	if err := db.PutContext(context.Background(), []byte{200}, []byte("changed")); err != nil {
		t.Fatal(err)
	}
	if err := db.PutContext(context.Background(), []byte{201}, []byte("new")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.MajorCompact("BT(I)", 2, 1); err != nil {
		t.Fatal(err)
	}

	if v, err := snap.Get([]byte{10}); err != nil || string(v) != "\n" {
		t.Errorf("snapshot Get(10) = %q, %v; want the pre-delete value", v, err)
	}
	if v, err := snap.Get([]byte{200}); err != nil || string(v) != "memtable" {
		t.Errorf("snapshot Get(200) = %q, %v; want %q", v, err, "memtable")
	}
	if _, err := snap.Get([]byte{201}); !errors.Is(err, ErrNotFound) {
		t.Errorf("snapshot sees post-snapshot key: %v", err)
	}
	it, release, err := snap.NewIterator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; it.Valid(); it.Next() {
		n++
	}
	release()
	if n != 101 {
		t.Errorf("snapshot iterator saw %d entries, want 101", n)
	}

	snap.Release()
	if _, err := snap.Get([]byte{10}); !errors.Is(err, ErrClosed) {
		t.Errorf("released snapshot Get = %v, want ErrClosed", err)
	}
}
