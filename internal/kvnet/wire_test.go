package kvnet

import (
	"bytes"
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/kverr"
	"repro/internal/lsm"
)

// TestEmptyValueVsNotFound: a stored empty value and a missing key must be
// distinguishable over the wire — not-found travels as an explicit status,
// never as an empty value.
func TestEmptyValueVsNotFound(t *testing.T) {
	c, _, _ := startServer(t)
	ctx := context.Background()
	if err := c.Put(ctx, []byte("empty"), nil); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get(ctx, []byte("empty"))
	if err != nil {
		t.Fatalf("Get(empty-value key) = %v, want nil error", err)
	}
	if len(v) != 0 {
		t.Fatalf("Get(empty-value key) = %q, want empty", v)
	}
	if _, err := c.Get(ctx, []byte("missing")); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
	}
	// The same distinction must survive a flush to sstables.
	if err := c.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get(ctx, []byte("empty")); err != nil || len(v) != 0 {
		t.Fatalf("Get(empty-value key) after flush = %q, %v", v, err)
	}
}

// TestTypedErrorsOverWire: canonical engine errors decode back to the same
// sentinels on the client side, so errors.Is works across the network.
func TestTypedErrorsOverWire(t *testing.T) {
	ctx := context.Background()
	t.Run("batch too large", func(t *testing.T) {
		c, _, _ := startServer(t)
		big := []BatchOp{{Key: []byte("k"), Value: make([]byte, lsm.MaxBatchBytes+1)}}
		err := c.Write(ctx, big)
		if !errors.Is(err, kverr.ErrBatchTooLarge) {
			t.Fatalf("oversized remote Write = %v, want ErrBatchTooLarge", err)
		}
	})
	t.Run("engine closed", func(t *testing.T) {
		db, err := lsm.Open(t.TempDir(), lsm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer(db)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		defer srv.Close()
		c, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		db.Close() // close the engine under the running server
		if err := c.Put(ctx, []byte("k"), []byte("v")); !errors.Is(err, kverr.ErrClosed) {
			t.Fatalf("Put against closed engine = %v, want ErrClosed", err)
		}
	})
}

// TestClientContextCancellation: a context cancelled mid-request releases
// the caller promptly, and — the request being withdrawn by tag — leaves
// the connection healthy, even against a peer that never answers.
func TestClientContextCancellation(t *testing.T) {
	// A listener that accepts and never replies simulates a dead peer.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			_ = conn // read nothing, reply with nothing
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	begin := time.Now()
	_, err = c.Get(ctx, []byte("k"))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Get against mute peer = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
	if !c.Healthy() {
		t.Fatal("a cancelled request broke the connection")
	}
	c.Close()
	if _, err := c.Get(context.Background(), []byte("k")); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("Get on closed client = %v, want ErrClientClosed", err)
	}
}

// TestClientContextDeadline: a context deadline bounds the round trip
// against a peer that never replies.
func TestClientContextDeadline(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	begin := time.Now()
	_, err = c.Get(ctx, []byte("k"))
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Get with deadline against mute peer = %v, want DeadlineExceeded", err)
	}
	if elapsed := time.Since(begin); elapsed > 5*time.Second {
		t.Fatalf("deadline enforcement took %v", elapsed)
	}
}

// TestServerIdleTimeout: the server reaps connections that go quiet, so a
// dead peer cannot pin a handler goroutine forever.
func TestServerIdleTimeout(t *testing.T) {
	db, err := lsm.Open(t.TempDir(), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := NewServer(db)
	srv.IdleTimeout = 100 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing. The server must hang up on its own.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected the idle connection to be closed by the server")
	}
}

// TestErrorCodeRoundTrip exercises the encode/decode of StatusError codes
// directly.
func TestErrorCodeRoundTrip(t *testing.T) {
	for _, code := range []ErrCode{CodeGeneric, CodeClosed, CodeStalled, CodeBatchTooLarge, CodeCanceled, CodeDeadlineExceeded} {
		in := Response{Status: StatusError, Code: code, Err: "boom"}
		out, err := DecodeResponse(EncodeResponse(in))
		if err != nil {
			t.Fatalf("code %d: %v", code, err)
		}
		if out.Code != code || out.Err != "boom" {
			t.Fatalf("code %d round-tripped to %d/%q", code, out.Code, out.Err)
		}
	}
}

// TestRangeRequestRoundTrip: the End presence flag survives encoding, so a
// nil (open) end is not confused with an empty one.
func TestRangeRequestRoundTrip(t *testing.T) {
	for _, req := range []Request{
		{Op: OpStream, Start: []byte("a"), End: []byte("b"), Credit: 7},
		{Op: OpStream, Start: nil, End: nil, Credit: 0},
		{Op: OpStream, Start: []byte("x"), End: nil, Credit: 3},
	} {
		got, err := DecodeRequest(EncodeRequest(req))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Start, req.Start) && !(len(got.Start) == 0 && len(req.Start) == 0) {
			t.Fatalf("start %q -> %q", req.Start, got.Start)
		}
		if (req.End == nil) != (got.End == nil) {
			t.Fatalf("end nil-ness lost: %v -> %v", req.End, got.End)
		}
		if !bytes.Equal(got.End, req.End) {
			t.Fatalf("end %q -> %q", req.End, got.End)
		}
		if got.Credit != req.Credit {
			t.Fatalf("credit %d -> %d", req.Credit, got.Credit)
		}
	}
}

// TestCloseUnblocksWedgedRequest: Close must tear down a connection even
// while a request is blocked mid-read against a dead peer — it must not
// wait for the request to finish (it never would).
func TestCloseUnblocksWedgedRequest(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
		}
	}()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Get(context.Background(), []byte("k")) // no deadline: blocks forever
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the Get wedge in its read
	closed := make(chan error, 1)
	go func() { closed <- c.Close() }()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close blocked behind a wedged request")
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("wedged Get succeeded after Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("wedged Get did not return after Close")
	}
}
