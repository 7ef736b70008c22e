package kv

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/vfs"
)

// gatedFS is a filesystem whose sstable creates wait for gate to close: an
// engine opened on it takes writes, but its flusher wedges in its first
// flush, so a writer that fills the next memtable waits for it.
type gatedFS struct {
	vfs.FS
	gate chan struct{}
}

func (g gatedFS) Create(path string) (vfs.File, error) {
	if strings.HasSuffix(path, ".sst") {
		<-g.gate
	}
	return g.FS.Create(path)
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

// TestCancelBlockedPipeline is the façade-level acceptance test: on every
// backend, with the pipeline blocked (flusher wedged, a writer waiting for
// it), a write cancelled in that wait returns promptly. On a local engine,
// of one shard or four, the error is ErrStalled wrapping context.Canceled
// (the write is durable; only the wait was abandoned), and a write
// cancelled while parked in the commit queue behind it returns
// context.Canceled and never commits. A remote or cluster client withdraws
// its request with context.Canceled. Either way the next request on the
// same engine succeeds once the flusher is let go.
func TestCancelBlockedPipeline(t *testing.T) {
	for _, tc := range []struct {
		name  string
		local bool
		open  func(t *testing.T, opts ...Option) Engine
	}{
		{"local-1", true, func(t *testing.T, opts ...Option) Engine { return openLocal(t, 1, opts...) }},
		{"local-4", true, func(t *testing.T, opts ...Option) Engine { return openLocal(t, 4, opts...) }},
		{"remote", false, openRemote},
		{"cluster", false, openClusterEngine},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := gatedFS{FS: vfs.Default, gate: make(chan struct{})}
			var once sync.Once
			release := func() { once.Do(func() { close(fs.gate) }) }
			// A one-byte memtable makes every write fill one. Cleanups run
			// last first, so the flusher is let go before the engine closes.
			eng := tc.open(t, WithFS(fs), WithMemtableBytes(1))
			t.Cleanup(release)
			ctx := context.Background()

			// The first write hands its memtable to the flusher, which
			// wedges; the second, to the same key and so the same shard,
			// fills the next and waits.
			if err := eng.Put(ctx, []byte("k"), []byte("1")); err != nil {
				t.Fatal(err)
			}
			stallCtx, cancelStalled := context.WithCancel(ctx)
			stalled := make(chan error, 1)
			go func() { stalled <- eng.Put(stallCtx, []byte("k"), []byte("2")) }()
			waitForStalls(t, eng)

			if tc.local {
				// A third write, to the same shard, parks in the commit
				// queue behind the waiting leader.
				parkCtx, cancelParked := context.WithCancel(ctx)
				parked := make(chan error, 1)
				go func() { parked <- eng.Put(parkCtx, []byte("k"), []byte("3")) }()
				time.Sleep(20 * time.Millisecond) // let it enqueue behind the leader
				cancelParked()
				select {
				case err := <-parked:
					if !errors.Is(err, context.Canceled) {
						t.Errorf("parked write = %v, want context.Canceled", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("write parked in the commit queue did not return after cancel")
				}
			}

			cancelStalled()
			select {
			case err := <-stalled:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("stalled write = %v, want context.Canceled", err)
				}
				if tc.local && !errors.Is(err, ErrStalled) {
					t.Errorf("stalled write = %v, want ErrStalled wrapped", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("write waiting for the flusher did not return after cancel")
			}

			release()
			if err := eng.Put(ctx, []byte("next"), []byte("4")); err != nil {
				t.Fatalf("write after release: %v", err)
			}
			if v, err := eng.Get(ctx, []byte("next")); err != nil || string(v) != "4" {
				t.Fatalf("Get(next) = %q, %v", v, err)
			}
			if !tc.local {
				return
			}
			// The stalled write is durable, the parked one never committed.
			if v, err := eng.Get(ctx, []byte("k")); err != nil || string(v) != "2" {
				t.Errorf("Get(k) = %q, %v; want the stalled write's 2", v, err)
			}
		})
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
