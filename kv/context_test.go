package kv

import (
	"context"
	"errors"
	"testing"
	"time"
)

// openWedged opens a single-partition engine whose background compactor
// wedges between merge and swap, so write-stall backpressure, once
// entered, does not clear until release is called. A 1-byte memtable makes
// every Put cut a table, reaching the stall threshold deterministically.
func openWedged(t *testing.T) (Engine, func()) {
	t.Helper()
	block := make(chan struct{})
	released := false
	release := func() {
		if !released {
			released = true
			close(block)
		}
	}
	eng, err := Open(t.TempDir(),
		WithShards(1),
		WithMemtableBytes(1),
		WithBackgroundCompaction(BackgroundConfig{Trigger: 2, Stall: 3, Strategy: "BT(I)", K: 2}),
		withHookBeforeSwap(func() error {
			<-block
			return nil
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		release()
		eng.Close()
	})
	return eng, release
}

// waitForStalls polls until the engine reports a write stall.
func waitForStalls(t *testing.T, eng Engine) {
	t.Helper()
	ctx := context.Background()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		st, err := eng.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.WriteStalls >= 1 {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no write stall observed")
}

// TestCancelBlockedPipeline is the façade-level acceptance test: with the
// pipeline blocked (compactor wedged, writer stalled in backpressure), a
// context cancelled while blocked in the stall wait and one cancelled
// while parked in the commit queue must both return promptly with
// context.Canceled.
func TestCancelBlockedPipeline(t *testing.T) {
	eng, release := openWedged(t)
	ctx := context.Background()

	// Reach the compaction trigger; the compactor wedges. Each write waits
	// for the flush it triggers, so that no later write waits for the
	// flusher and counts a stall that is not backpressure.
	for i, kv := range [][2]string{{"a", "1"}, {"b", "2"}} {
		if err := eng.Put(ctx, []byte(kv[0]), []byte(kv[1])); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			st, err := eng.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.Flushes > i {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("flush %d never finished", i+1)
			}
		}
	}

	// Third write cuts the stall-threshold table and blocks in
	// backpressure.
	stallCtx, cancelStalled := context.WithCancel(context.Background())
	stalledErr := make(chan error, 1)
	go func() { stalledErr <- eng.Put(stallCtx, []byte("c"), []byte("3")) }()
	waitForStalls(t, eng)

	// Fourth write parks in the commit queue behind the stalled leader.
	parkCtx, cancelParked := context.WithCancel(context.Background())
	parkedErr := make(chan error, 1)
	go func() { parkedErr <- eng.Put(parkCtx, []byte("d"), []byte("4")) }()
	time.Sleep(20 * time.Millisecond) // let it enqueue behind the leader

	cancelParked()
	select {
	case err := <-parkedErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("parked write = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write parked in commit queue did not return after cancel")
	}

	cancelStalled()
	select {
	case err := <-stalledErr:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("stalled write = %v, want context.Canceled", err)
		}
		if !errors.Is(err, ErrStalled) {
			t.Errorf("stalled write = %v, want ErrStalled wrapped", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write blocked in backpressure did not return after cancel")
	}

	// Unwedge and verify the store: the stalled write was already durable
	// (only its delay was abandoned), the abandoned parked write never
	// committed.
	release()
	if v, err := eng.Get(ctx, []byte("c")); err != nil || string(v) != "3" {
		t.Errorf("Get(c) = %q, %v; stalled write should be durable", v, err)
	}
	if _, err := eng.Get(ctx, []byte("d")); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(d) = %v; abandoned parked write should not commit", err)
	}
}

// TestIteratorContextCancellation: cancelling the iterator's context stops
// a local scan mid-drain.
func TestIteratorContextCancellation(t *testing.T) {
	eng := openLocal(t, 2)
	fillKeys(t, eng, 2000)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	it, err := eng.NewIterator(ctx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	seen := 0
	for ; it.Valid(); it.Next() {
		seen++
		if seen == 10 {
			cancel()
		}
	}
	if err := it.Err(); !errors.Is(err, context.Canceled) {
		t.Errorf("iterator Err = %v after cancel, want context.Canceled", err)
	}
	if seen >= 2000 {
		t.Errorf("iterator drained all entries despite cancellation")
	}
}

// TestPreCancelledOps: an already-cancelled context fails every engine
// operation fast, on every backend.
func TestPreCancelledOps(t *testing.T) {
	forEachBackend(t, func(t *testing.T, eng Engine) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := eng.Put(ctx, []byte("k"), []byte("v")); !errors.Is(err, context.Canceled) {
			t.Errorf("Put = %v", err)
		}
		if _, err := eng.Get(ctx, []byte("k")); !errors.Is(err, context.Canceled) {
			t.Errorf("Get = %v", err)
		}
		if _, err := eng.NewIterator(ctx, nil, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("NewIterator = %v", err)
		}
		if _, err := eng.Snapshot(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("Snapshot = %v", err)
		}
		if err := eng.Flush(ctx); !errors.Is(err, context.Canceled) {
			t.Errorf("Flush = %v", err)
		}
		if _, err := eng.Compact(ctx, nil); !errors.Is(err, context.Canceled) {
			t.Errorf("Compact = %v", err)
		}
	})
}

// TestRemoteCancelSameConnection: a remote request whose context expires is
// withdrawn by tag; the engine keeps the very connection it had, and the
// next operation runs over it.
func TestRemoteCancelSameConnection(t *testing.T) {
	eng := openRemote(t)
	re := eng.(*remoteEngine)
	ctx := context.Background()
	if err := eng.Put(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	before, err := re.client()
	if err != nil {
		t.Fatal(err)
	}
	// A deadline already past never reaches the wire; a scan cancelled
	// part-way does — its server-side stream is open and parked.
	expired, cancel := context.WithDeadline(ctx, time.Now().Add(-time.Second))
	defer cancel()
	if err := eng.Put(expired, []byte("x"), []byte("y")); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline Put = %v, want DeadlineExceeded", err)
	}
	fillKeys(t, eng, 2000)
	scanCtx, cancelScan := context.WithCancel(ctx)
	defer cancelScan()
	it, err := eng.NewIterator(scanCtx, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	seen := 0
	for ; it.Valid(); it.Next() {
		if seen++; seen == 10 {
			cancelScan()
		}
	}
	if err := it.Err(); !errors.Is(err, context.Canceled) || seen >= 2000 {
		t.Fatalf("cancelled scan: Err = %v after %d entries, want context.Canceled part-way", err, seen)
	}
	if v, err := eng.Get(ctx, []byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get after cancelled requests = %q, %v", v, err)
	}
	after, err := re.client()
	if err != nil {
		t.Fatal(err)
	}
	if after != before || !after.Healthy() {
		t.Fatal("a cancelled request cost the engine its connection")
	}
}
