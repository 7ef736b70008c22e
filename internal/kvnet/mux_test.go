package kvnet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kverr"
	"repro/internal/lsm"
)

// listen starts srv on a loopback listener and returns its address.
func listen(t *testing.T, srv *Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// serve starts srv and returns a client connected to it.
func serve(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := Dial(listen(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func openDB(t *testing.T) *lsm.DB {
	t.Helper()
	db, err := lsm.Open(t.TempDir(), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		if cond() {
			return
		}
	}
	t.Fatalf("timed out waiting for %s", what)
}

// overlapEngine holds the first Put or Get to reach it until a second one
// has, so that two requests are in flight together whatever the scheduler
// does.
type overlapEngine struct {
	Engine
	entered atomic.Int32
	second  chan struct{}
}

func (e *overlapEngine) enter() {
	switch e.entered.Add(1) {
	case 1:
		select {
		case <-e.second:
		case <-time.After(10 * time.Second): // the high-water check reports it
		}
	case 2:
		close(e.second)
	}
}

func (e *overlapEngine) PutContext(ctx context.Context, key, value []byte) error {
	e.enter()
	return e.Engine.PutContext(ctx, key, value)
}

func (e *overlapEngine) GetContext(ctx context.Context, key []byte) ([]byte, error) {
	e.enter()
	return e.Engine.GetContext(ctx, key)
}

// TestSharedClientManyInFlight: 64 goroutines share one Client with Gets,
// Puts and streams in flight together, and every reply matches its
// request. Run under -race this is the multiplexer's acceptance test. The
// engine holds the first request until a second has arrived: one
// connection must carry both at once.
func TestSharedClientManyInFlight(t *testing.T) {
	srv := NewServer(&overlapEngine{Engine: openDB(t), second: make(chan struct{})})
	c := serve(t, srv)
	ctx := context.Background()
	const goroutines, rounds = 64, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			prefix := fmt.Sprintf("g%02d-", g)
			for i := 0; i < rounds; i++ {
				key := []byte(fmt.Sprintf("%s%04d", prefix, i))
				val := bytes.Repeat(key, 1+i%7)
				if err := c.Put(ctx, key, val); err != nil {
					t.Errorf("%s: Put: %v", key, err)
					return
				}
				got, err := c.Get(ctx, key)
				if err != nil || !bytes.Equal(got, val) {
					t.Errorf("%s: Get = %q, %v; want %q", key, got, err, val)
					return
				}
				if i%8 != 7 {
					continue
				}
				// This goroutine's keys, and only they, in order.
				st := new(Stream)
				if err := c.OpenStream(ctx, st, []byte(prefix), []byte(fmt.Sprintf("g%02d.", g))); err != nil {
					t.Errorf("%s: Stream: %v", prefix, err)
					return
				}
				n := 0
				for ; st.Valid(); st.Next() {
					if want := fmt.Sprintf("%s%04d", prefix, n); string(st.Key()) != want {
						t.Errorf("%s: stream entry %d = %q, want %q", prefix, n, st.Key(), want)
					}
					n++
				}
				if err := st.Err(); err != nil || n != i+1 {
					t.Errorf("%s: stream saw %d entries, err %v; want %d", prefix, n, err, i+1)
				}
				st.Close()
			}
		}(g)
	}
	wg.Wait()
	if high := srv.Stats().InFlightHighWater; high < 2 {
		t.Errorf("in-flight high water = %d: requests did not overlap on the shared connection", high)
	}
	waitFor(t, "streams to close", func() bool { return srv.Stats().OpenStreams == 0 })
}

// gateEngine blocks a Get of the key "block" until its context ends, and
// reports that context's error on cancelled.
type gateEngine struct {
	Engine
	entered   chan struct{}
	cancelled chan error
}

func (e gateEngine) GetContext(ctx context.Context, key []byte) ([]byte, error) {
	if string(key) != "block" {
		return e.Engine.GetContext(ctx, key)
	}
	e.entered <- struct{}{}
	<-ctx.Done()
	e.cancelled <- ctx.Err()
	return nil, ctx.Err()
}

// TestCancelOneRequestLeavesTheRest: cancelling an in-flight request ends
// that request on both sides and nothing else — other requests in flight
// complete, and the connection is the same healthy one afterwards.
func TestCancelOneRequestLeavesTheRest(t *testing.T) {
	eng := gateEngine{Engine: openDB(t), entered: make(chan struct{}, 1), cancelled: make(chan error, 1)}
	c := serve(t, NewServer(eng))
	bg := context.Background()
	if err := c.Put(bg, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(bg)
	blocked := make(chan error, 1)
	go func() {
		_, err := c.Get(ctx, []byte("block"))
		blocked <- err
	}()
	<-eng.entered

	// The connection keeps serving while that request is stuck.
	for i := 0; i < 20; i++ {
		if v, err := c.Get(bg, []byte("k")); err != nil || string(v) != "v" {
			t.Fatalf("Get beside a blocked request = %q, %v", v, err)
		}
	}
	cancel()
	select {
	case err := <-blocked:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Get = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Get did not return")
	}
	select {
	case err := <-eng.cancelled:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("server-side request context = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancel(tag) never reached the server-side request")
	}
	if !c.Healthy() {
		t.Fatal("connection unhealthy after a cancelled request")
	}
	if v, err := c.Get(bg, []byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get after cancel = %q, %v", v, err)
	}
	// The worker that ran the cancelled request serves the next one under
	// a live context.
	cancel2ctx, cancel2 := context.WithCancel(bg)
	go func() {
		<-eng.entered
		cancel2()
	}()
	if _, err := c.Get(cancel2ctx, []byte("block")); !errors.Is(err, context.Canceled) {
		t.Fatalf("second cancelled Get = %v", err)
	}
	<-eng.cancelled
}

// fill writes n keys k000000.. with 100-byte values and flushes.
func fill(t *testing.T, db *lsm.DB, n int) {
	t.Helper()
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < n; i++ {
		if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("k%06d", i)), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

func sstFiles(t *testing.T, dir string) int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.sst"))
	if err != nil {
		t.Fatal(err)
	}
	return len(files)
}

// TestLeaseReapsAbandonedHandles: a stream parked on a client that never
// grants credit, and a snapshot nobody names again, are reaped after the
// lease; their view pins go with them, so the sstables a compaction
// superseded are deleted; and a late use of either fails with ErrClosed.
func TestLeaseReapsAbandonedHandles(t *testing.T) {
	dir := t.TempDir()
	db, err := lsm.Open(dir, lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fill(t, db, 500)
	fill(t, db, 500) // a second table, so a compaction has work
	srv := NewServer(db)
	srv.lease = 150 * time.Millisecond
	c := serve(t, srv)
	ctx := context.Background()

	st := new(Stream) // 500 entries > the first grant: the scan parks
	if err := c.OpenStream(ctx, st, nil, nil); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	snap, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.Stats(); got.OpenStreams != 1 || got.OpenSnapshots != 1 {
		t.Fatalf("stats with both open = %+v", got)
	}
	if _, err := db.MajorCompact("BT(I)", 2, 1); err != nil {
		t.Fatal(err)
	}
	if n := sstFiles(t, dir); n < 3 {
		t.Fatalf("%d sstables on disk while a stream and a snapshot pin the old ones, want 3", n)
	}

	waitFor(t, "lease expiry", func() bool {
		got := srv.Stats()
		return got.LeaseExpiries == 2 && got.OpenStreams == 0 && got.OpenSnapshots == 0
	})
	waitFor(t, "superseded sstables to be deleted", func() bool { return sstFiles(t, dir) == 1 })

	for ; st.Valid(); st.Next() {
	}
	if err := st.Err(); !errors.Is(err, kverr.ErrClosed) {
		t.Errorf("resuming a reaped stream: Err = %v, want ErrClosed", err)
	}
	if _, err := snap.Get(ctx, []byte("k000001")); !errors.Is(err, kverr.ErrClosed) {
		t.Errorf("Get through a reaped snapshot = %v, want ErrClosed", err)
	}
	if err := snap.OpenStream(ctx, new(Stream), nil, nil); !errors.Is(err, kverr.ErrClosed) {
		t.Errorf("OpenStream through a reaped snapshot = %v, want ErrClosed", err)
	}
	// The connection itself is fine.
	if _, err := c.Get(ctx, []byte("k000001")); err != nil {
		t.Fatal(err)
	}
}

// TestHandlesReleasedOnClose: Close, Release and connection loss each drop
// what they should, without waiting for a lease.
func TestHandlesReleasedOnClose(t *testing.T) {
	db := openDB(t)
	fill(t, db, 500)
	srv := NewServer(db)
	c := serve(t, srv)
	ctx := context.Background()

	st := new(Stream)
	if err := c.OpenStream(ctx, st, nil, nil); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	snap.Release()
	waitFor(t, "Close and Release to reach the server", func() bool {
		got := srv.Stats()
		return got.OpenStreams == 0 && got.OpenSnapshots == 0
	})
	if _, err := snap.Get(ctx, []byte("k000001")); !errors.Is(err, kverr.ErrClosed) {
		t.Errorf("Get through a released snapshot = %v, want ErrClosed", err)
	}

	if err := c.OpenStream(ctx, new(Stream), nil, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Snapshot(ctx); err != nil {
		t.Fatal(err)
	}
	c.Close()
	waitFor(t, "connection loss to release handles", func() bool {
		got := srv.Stats()
		return got.OpenStreams == 0 && got.OpenSnapshots == 0
	})
	if got := srv.Stats().LeaseExpiries; got != 0 {
		t.Errorf("lease expiries = %d, want 0", got)
	}
}

// TestSnapshotIsPointInTime: reads through a snapshot handle ignore every
// later write; an engine without snapshots answers ErrConfig.
func TestSnapshotIsPointInTime(t *testing.T) {
	db := openDB(t)
	fill(t, db, 300)
	c := serve(t, NewServer(db))
	ctx := context.Background()
	snap, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Release()
	if err := c.Put(ctx, []byte("k000007"), []byte("changed")); err != nil {
		t.Fatal(err)
	}
	if err := c.Delete(ctx, []byte("k000008")); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(ctx, []byte("new"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if v, err := snap.Get(ctx, []byte("k000007")); err != nil || len(v) != 100 {
		t.Errorf("snapshot Get(overwritten after) = %q, %v", v, err)
	}
	if _, err := snap.Get(ctx, []byte("new")); !errors.Is(err, ErrNotFound) {
		t.Errorf("snapshot Get(written after) = %v, want ErrNotFound", err)
	}
	st := new(Stream)
	if err := snap.OpenStream(ctx, st, nil, nil); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n := 0
	for ; st.Valid(); st.Next() {
		if len(st.Value()) != 100 {
			t.Errorf("snapshot stream: %q = %q", st.Key(), st.Value())
		}
		n++
	}
	if err := st.Err(); err != nil || n != 300 {
		t.Errorf("snapshot stream saw %d entries, err %v; want 300", n, err)
	}

	// An Engine that is only the eight methods has no snapshots.
	bare := serve(t, NewServer(struct{ Engine }{db}))
	if _, err := bare.Snapshot(ctx); !errors.Is(err, kverr.ErrConfig) {
		t.Errorf("Snapshot on an engine without snapshots = %v, want ErrConfig", err)
	}
	bareSt := new(Stream)
	if err := bare.OpenStream(ctx, bareSt, nil, []byte("k000010")); err != nil || !bareSt.Valid() {
		t.Errorf("OpenStream on the same engine = %v", err)
	}
	bareSt.Close()
}

// TestStreamClientMemoryBounded: a full scan of a database far larger than
// the credit cap never holds more than the cap on the client, and reaches
// the cap in a few doubling grants.
func TestStreamClientMemoryBounded(t *testing.T) {
	db := openDB(t)
	const n = 30000 // ~3.3 MB of entries, 13x maxCredit
	fill(t, db, n)
	c := serve(t, NewServer(db))
	st := new(Stream)
	if err := c.OpenStream(context.Background(), st, nil, nil); err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	seen, bytesSeen := 0, 0
	var prev []byte
	for ; st.Valid(); st.Next() {
		if bytes.Compare(prev, st.Key()) >= 0 {
			t.Fatalf("out of order: %q after %q", st.Key(), prev)
		}
		prev = append(prev[:0], st.Key()...)
		bytesSeen += entrySize(st.Key(), st.Value())
		seen++
	}
	if err := st.Err(); err != nil || seen != n {
		t.Fatalf("scan saw %d entries, err %v; want %d", seen, err, n)
	}
	if bytesSeen < 10*maxCredit {
		t.Fatalf("scan carried %d bytes: too small to prove anything against a cap of %d", bytesSeen, maxCredit)
	}
	if st.maxChunk > maxCredit {
		t.Errorf("largest chunk buffered = %d bytes, over the credit cap %d", st.maxChunk, maxCredit)
	}
	if st.maxChunk < maxCredit/2 {
		t.Errorf("largest chunk buffered = %d bytes: credit never grew toward the cap %d", st.maxChunk, maxCredit)
	}
	if st.credit != maxCredit {
		t.Errorf("last grant = %d, want the cap %d", st.credit, maxCredit)
	}
}

// lateCtx is a context whose expiry its Done channel has not delivered
// yet: once expire is called Err reports it, but Done never fires. That is
// the window in which a chunk already on its way wins the select in await
// against the expiry, made permanent so a test can stand in it.
type lateCtx struct {
	context.Context
	expired atomic.Bool
}

func (c *lateCtx) expire() { c.expired.Store(true) }

func (c *lateCtx) Err() error {
	if c.expired.Load() {
		return context.DeadlineExceeded
	}
	return nil
}

// TestCancelledStreamGrantsNoMoreCredit: a stream whose context ended
// mid-chunk serves what it already holds and then stops with the context's
// error; it does not ask the server for another chunk, which could arrive
// before the expiry is noticed and be served instead. The "late" case is
// that race lost for good: only the stream's own check before a grant can
// surface the abort, because await never sees Done.
func TestCancelledStreamGrantsNoMoreCredit(t *testing.T) {
	late := &lateCtx{Context: context.Background()}
	cancelled, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name string
		ctx  context.Context
		end  func()
		want error
	}{
		{"cancelled", cancelled, cancel, context.Canceled},
		{"late", late, late.expire, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db := openDB(t)
			fill(t, db, 2000)
			srv := NewServer(db)
			c := serve(t, srv)
			st := new(Stream)
			if err := c.OpenStream(tc.ctx, st, nil, nil); err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			granted, held := st.credit, 0
			tc.end()
			for ; st.Valid(); st.Next() {
				held++
			}
			if err := st.Err(); !errors.Is(err, tc.want) {
				t.Fatalf("Err = %v after %d entries, want %v", err, held, tc.want)
			}
			if st.credit != granted {
				t.Errorf("ended stream raised its grant from %d to %d", granted, st.credit)
			}
			if limit := initialCredit/entrySize(make([]byte, 7), make([]byte, 100)) + 1; held == 0 || held > limit {
				t.Errorf("ended stream served %d entries, want the first chunk's (1..%d)", held, limit)
			}
			st.Close()
			waitFor(t, "the ended scan to end", func() bool { return srv.Stats().OpenStreams == 0 })
		})
	}
}

// TestShortScanFetchesLittle: a scan closed after a few entries, or just
// past its first chunk, costs the server that one small chunk. 37 of fill's
// 109-byte entries fill the 4 KiB first grant, and the server reads one more
// that did not fit. The bound is a literal, so a larger first grant fails; a
// grant sent before the caller asks for the entry after the chunk costs the
// server a whole second chunk.
func TestShortScanFetchesLittle(t *testing.T) {
	const limit = 38
	db := openDB(t)
	fill(t, db, 2000)
	first := func(n int) func(*Stream) int {
		return func(st *Stream) int {
			i := 0
			for ; i < n && st.Valid(); i++ {
				st.Next()
			}
			return i
		}
	}
	for _, tc := range []struct {
		name  string
		take  func(*Stream) int // takes entries and says how many
		chunk bool              // took the whole first chunk and stepped past it
	}{
		{"10 entries", first(10), false},
		{"30 entries", first(30), false},
		{"the first chunk, then Next", func(st *Stream) int {
			for i := 1; st.Valid(); i++ {
				last := len(st.rest) == 0
				if st.Next(); last {
					return i
				}
			}
			return 0
		}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			counting := countingEngine{Engine: db, produced: new(atomic.Int64)}
			srv := NewServer(counting)
			c := serve(t, srv)
			st := new(Stream)
			if err := c.OpenStream(context.Background(), st, []byte("k000100"), nil); err != nil {
				t.Fatal(err)
			}
			took := tc.take(st)
			st.Close()
			waitFor(t, "the cancelled scan to end", func() bool { return srv.Stats().OpenStreams == 0 })
			got := counting.produced.Load()
			if got > limit {
				t.Errorf("server produced %d entries for a %d-entry scan, want <= %d", got, took, limit)
			}
			if tc.chunk && got > int64(took)+1 {
				t.Errorf("server produced %d entries for a scan that took its %d-entry first chunk, want <= %d", got, took, took+1)
			}
		})
	}
}

// countingEngine counts the entries RangeContext hands to its callback.
type countingEngine struct {
	Engine
	produced *atomic.Int64
}

func (e countingEngine) RangeContext(ctx context.Context, start, end []byte, fn func(k, v []byte) error) error {
	return e.Engine.RangeContext(ctx, start, end, func(k, v []byte) error {
		e.produced.Add(1)
		return fn(k, v)
	})
}

// TestSlowReaderCannotWedgeServer: a peer that sends requests and never
// reads the answers fills its socket; the blocked write times out after
// writeTimeout and the server drops the connection instead of wedging its
// workers, and other clients are served throughout.
func TestSlowReaderCannotWedgeServer(t *testing.T) {
	db := openDB(t)
	if err := db.PutContext(context.Background(), []byte("big"), make([]byte, 1<<20)); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	srv.writeTimeout = 200 * time.Millisecond
	addr := listen(t, srv)
	other, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Ask for the 1 MiB value over and over without ever reading. Once the
	// server has hung up the writes start failing.
	frame, _ := endFrame(AppendRequest(beginFrame(nil, 1), &Request{Op: OpGet, Key: []byte("big")}))
	conn.SetWriteDeadline(time.Now().Add(20 * time.Second))
	dropped := false
	for i := 0; i < 100000 && !dropped; i++ {
		if _, err := conn.Write(frame); err != nil {
			dropped = true
		}
		if i%64 == 0 {
			if _, err := other.Get(context.Background(), []byte("big")); err != nil {
				t.Fatalf("well-behaved client starved: %v", err)
			}
		}
	}
	if !dropped {
		t.Fatal("server kept a connection whose peer never reads")
	}
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Server.Close wedged behind a blocked write")
	}
}
