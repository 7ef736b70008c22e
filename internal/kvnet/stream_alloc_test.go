package kvnet_test

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/kvnet"
	"repro/internal/lsm"
	"repro/internal/store"
	"repro/kv"
)

// TestAllocStreamOnlyItsIterator pins what a short remote scan costs the
// whole process, server included: open a stream, take ten entries, close it
// and wait for the server to end the scan. The round parks the scan once (ten
// entries are far short of the first chunk), so it covers the stream's
// set-up, its lease and its cancel. What is left is the client's iterator —
// a kvnet.Stream, or kv's iterator with the stream inside it. Per-stream
// server state (a request copy, the stream, its channels, a cancel context,
// closures, a lease timer per park) cost about seventeen objects before it
// was recycled per connection.
func TestAllocStreamOnlyItsIterator(t *testing.T) {
	if kvnet.RaceEnabled {
		t.Skip("pooled objects are dropped at random under the race detector")
	}
	// A P's private pool slot is out of reach of a goroutine that moved.
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	db, err := lsm.Open(t.TempDir(), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	st, err := store.Open(t.TempDir(), store.Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	val := bytes.Repeat([]byte("v"), 100)
	for _, eng := range []kvnet.Engine{db, st} {
		for i := 0; i < 2000; i++ {
			if err := eng.PutContext(context.Background(), []byte(fmt.Sprintf("k%06d", i)), val); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	ctx, start := context.Background(), []byte("k000100")
	for _, tc := range []struct {
		name string
		eng  kvnet.Engine
	}{{"lsm.DB", db}, {"store.Store/2 shards", st}} {
		srv := kvnet.NewServer(tc.eng)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		ended := func() {
			for srv.Stats().OpenStreams != 0 {
				time.Sleep(20 * time.Microsecond)
			}
		}

		c, err := kvnet.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		stream := testing.AllocsPerRun(200, func() {
			s, err := c.Stream(ctx, start, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10 && s.Valid(); i++ {
				s.Next()
			}
			if !s.Valid() || s.Err() != nil {
				t.Fatalf("stream ended early: %v", s.Err())
			}
			s.Close()
			ended()
		})

		e, err := kv.Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		iter := testing.AllocsPerRun(200, func() {
			it, err := e.NewIterator(ctx, start, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10 && it.Valid(); i++ {
				it.Next()
			}
			if !it.Valid() || it.Err() != nil {
				t.Fatalf("iterator ended early: %v", it.Err())
			}
			it.Close()
			ended()
		})
		t.Logf("%s: kvnet.Stream %.1f objects per scan, kv iterator %.1f", tc.name, stream, iter)
		if stream > 1 || iter > 1 {
			t.Errorf("%s: a 10-entry remote scan allocates %.1f objects through kvnet.Stream and %.1f through a kv iterator, want at most 1 (the iterator)", tc.name, stream, iter)
		}
	}
}
