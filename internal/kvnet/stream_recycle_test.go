package kvnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/kverr"
)

// TestStressGrantRacingLeaseExpiryIsAnswered: a grant that reaches a stream
// whose lease has just fired, while the stream is still registered, is
// answered ErrClosed. Before grants and unregistering shared the connection's
// lock the grant went into the dying stream's slot, no frame ever came under
// the tag, and the client waited for as long as the connection lived.
func TestStressGrantRacingLeaseExpiryIsAnswered(t *testing.T) {
	db := openDB(t)
	fill(t, db, 500)
	srv := NewServer(db)
	srv.lease = 50 * time.Millisecond
	expiring := make(chan struct{}, 1)
	srv.onLeaseExpiry = func(st *srvStream) {
		// Hold the expiring stream registered until the client's grant is
		// in its slot.
		expiring <- struct{}{}
		for deadline := time.Now().Add(5 * time.Second); len(st.grant) == 0 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
	}
	c := serve(t, srv)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st, err := c.Stream(ctx, nil, nil) // 500 entries > the first grant: the scan parks
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	<-expiring
	n := 0
	for ; st.Valid(); st.Next() {
		n++
	}
	if err := st.Err(); !errors.Is(err, kverr.ErrClosed) {
		t.Fatalf("grant racing the lease expiry after %d entries: Err = %v, want ErrClosed", n, err)
	}
	waitFor(t, "the expired stream to end", func() bool { return srv.Stats().OpenStreams == 0 })
	if got := srv.Stats().LeaseExpiries; got != 1 {
		t.Errorf("lease expiries = %d, want 1", got)
	}
}

// TestStressRecycledStreamStateIsolated stresses one connection whose streams
// share recycled server state: short scans closed early, long scans granted
// to the end, snapshot streams, parked streams reaped by a short lease, and
// grants sent hard behind cancels. Every entry is checked against the
// model, and every stream has a deadline, so state leaking from one stream
// into the next — a grant or a wake left in a slot, a lease timer left
// armed, state reused while its last goroutine still runs — fails the test
// rather than hanging it. Then 1000 streams open at once on a connection
// and close: it keeps at most maxIdleStreams of their states, none with an
// armed timer, and no goroutine outlives them.
func TestStressRecycledStreamStateIsolated(t *testing.T) {
	const n = 3000
	db := openDB(t)
	keys, vals := make([][]byte, n), make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("k%06d", i))
		vals[i] = bytes.Repeat([]byte(fmt.Sprintf("%06d|", i)), 1+i%20)
		if err := db.PutContext(context.Background(), keys[i], vals[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	srv.lease = 150 * time.Millisecond
	c := serve(t, srv)

	// scan reads up to limit entries of [lo, hi) (hi = n: open) through
	// open, checking each, and reports how many it read and how the stream
	// ended.
	scan := func(open func(ctx context.Context, start, end []byte) (*Stream, error), lo, hi, limit int, pause time.Duration) (int, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		var end []byte
		if hi < n {
			end = keys[hi]
		}
		st, err := open(ctx, keys[lo], end)
		if err != nil {
			return 0, err
		}
		defer st.Close()
		got := 0
		for ; st.Valid() && got < limit; st.Next() {
			if i := lo + got; i >= hi || !bytes.Equal(st.Key(), keys[i]) || !bytes.Equal(st.Value(), vals[i]) {
				return got, fmt.Errorf("entry %d of [%d, %d) is %q", got, lo, hi, st.Key())
			}
			if got++; got == 1 && pause > 0 {
				time.Sleep(pause)
			}
		}
		return got, st.Err()
	}
	live := func(ctx context.Context, start, end []byte) (*Stream, error) { return c.Stream(ctx, start, end) }

	var wg sync.WaitGroup
	seed := int64(0)
	worker := func(name string, rounds int, fn func(r *rand.Rand) error) {
		wg.Add(1)
		seed++
		r := rand.New(rand.NewSource(seed))
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := fn(r); err != nil {
					t.Errorf("%s, round %d: %v", name, i, err)
					return
				}
			}
		}()
	}
	for w := 0; w < 6; w++ {
		worker(fmt.Sprintf("short scan %d", w), 150, func(r *rand.Rand) error {
			lo := r.Intn(n)
			_, err := scan(live, lo, min(n, lo+r.Intn(400)), r.Intn(40), 0)
			return err
		})
	}
	for w := 0; w < 2; w++ {
		worker(fmt.Sprintf("long scan %d", w), 15, func(r *rand.Rand) error {
			lo := r.Intn(n / 2)
			hi := lo + n/4 + r.Intn(n/2)
			if hi > n {
				hi = n
			}
			got, err := scan(live, lo, hi, n, 0)
			if err == nil && got != hi-lo {
				err = fmt.Errorf("[%d, %d) ended after %d entries", lo, hi, got)
			}
			return err
		})
		worker(fmt.Sprintf("snapshot scan %d", w), 15, func(r *rand.Rand) error {
			snap, err := c.Snapshot(context.Background())
			if err != nil {
				return err
			}
			defer snap.Release()
			lo := r.Intn(n / 2)
			got, err := scan(snap.Stream, lo, n, n, 0)
			if err == nil && got != n-lo {
				err = fmt.Errorf("snapshot [%d, %d) ended after %d entries", lo, n, got)
			}
			return err
		})
		worker(fmt.Sprintf("expiring scan %d", w), 3, func(r *rand.Rand) error {
			// Parked past its lease: the rest of the chunk, then ErrClosed.
			_, err := scan(live, r.Intn(n/2), n, n, 3*srv.lease)
			if !errors.Is(err, kverr.ErrClosed) {
				return fmt.Errorf("stream parked past its lease ended with %v, want ErrClosed", err)
			}
			return nil
		})
		worker(fmt.Sprintf("grant behind cancel %d", w), 150, func(r *rand.Rand) error {
			st, err := c.Stream(context.Background(), keys[r.Intn(n/2)], nil)
			if err != nil {
				return err
			}
			// The cancel wakes the parked scan and the grant lands in its
			// slot as it ends: the grant must not reach the next stream
			// that reuses the state.
			c.send(st.cl, st.tag, &Request{Op: OpCancel})
			c.send(st.cl, st.tag, &Request{Op: OpCredit, Credit: initialCredit})
			return st.Close()
		})
	}
	wg.Wait()
	waitFor(t, "the stress's streams to end", func() bool { return srv.Stats().OpenStreams == 0 })
	if srv.Stats().LeaseExpiries == 0 {
		t.Error("no stream was reaped by its lease")
	}
	if !c.Healthy() {
		t.Fatal("connection failed under the stress")
	}
	checkIdleStreams(t, srv)

	// A connection on a server with the full lease, so that all of them
	// are open at once however slowly they open.
	srv = NewServer(db)
	c = serve(t, srv)
	if err := c.Ping(context.Background()); err != nil { // the server's side is up
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	const open = 1000
	streams := make([]*Stream, open)
	for i := range streams {
		st, err := c.Stream(context.Background(), keys[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = st
	}
	if got := srv.Stats().OpenStreams; got != open {
		t.Fatalf("%d streams open on the server, want %d", got, open)
	}
	for _, st := range streams {
		st.Close()
	}
	waitFor(t, "1000 streams to end", func() bool { return srv.Stats().OpenStreams == 0 })
	checkIdleStreams(t, srv)
	waitFor(t, "stream goroutines to exit", func() bool { return runtime.NumGoroutine() <= baseline })
}

// checkIdleStreams checks the stream state srv's connections keep for reuse:
// at most maxIdleStreams each, every one with empty slots, no cancel
// pending and its lease timer stopped.
func checkIdleStreams(t *testing.T, srv *Server) {
	t.Helper()
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for sc := range srv.conns {
		sc.mu.Lock()
		if len(sc.idle) > maxIdleStreams {
			t.Errorf("connection keeps %d idle streams, bound %d", len(sc.idle), maxIdleStreams)
		}
		for _, st := range sc.idle {
			if len(st.grant) > 0 || len(st.wake) > 0 || st.cancelled.Load() {
				t.Errorf("idle stream (last tag %d) holds a grant (%d), a wake (%d) or a cancel (%v)", st.tag, len(st.grant), len(st.wake), st.cancelled.Load())
			}
			if st.lease != nil && (st.lease.Stop() || len(st.lease.C) > 0) {
				t.Errorf("idle stream (last tag %d) left its lease timer armed", st.tag)
			}
		}
		sc.mu.Unlock()
	}
}
