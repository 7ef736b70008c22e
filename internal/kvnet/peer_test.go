package kvnet

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kverr"
)

// gatedDialer is a DialFunc whose dials each wait for a release (or for
// their context) and then hand out one end of a pipe. It records every
// connection it made, so a test can see which ones the peer closed.
type gatedDialer struct {
	entered chan struct{} // one send per dial started
	release chan struct{} // each receive lets one dial finish

	mu    sync.Mutex
	conns []*trackedConn
}

type trackedConn struct {
	net.Conn
	other  net.Conn
	closed atomic.Bool
}

func (c *trackedConn) Close() error {
	c.closed.Store(true)
	c.other.Close()
	return c.Conn.Close()
}

func newGatedDialer() *gatedDialer {
	return &gatedDialer{entered: make(chan struct{}, 8), release: make(chan struct{})}
}

func (g *gatedDialer) dial(ctx context.Context, addr string) (net.Conn, error) {
	g.entered <- struct{}{}
	select {
	case <-g.release:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	a, b := net.Pipe()
	c := &trackedConn{Conn: a, other: b}
	g.mu.Lock()
	g.conns = append(g.conns, c)
	g.mu.Unlock()
	return c, nil
}

// await fails the test unless n more dials start within a second.
func (g *gatedDialer) await(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-g.entered:
		case <-time.After(time.Second):
			t.Fatalf("dial %d of %d did not start within 1s", i+1, n)
		}
	}
}

// brokenPeer returns a peer over g whose first connection is dialled and
// then broken, so the next Client re-dials. When the test ends every dial
// is let go, then the peer closes.
func brokenPeer(t *testing.T, g *gatedDialer) *Peer {
	t.Helper()
	p := NewPeer("node", g.dial)
	t.Cleanup(func() { p.Close() })
	t.Cleanup(func() { close(g.release) })
	go func() { g.release <- struct{}{} }()
	c, err := p.Client(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	g.await(t, 1)
	c.Close()
	return p
}

// TestStressPeerRedial drives a Peer's re-dial through a gated dial: two
// re-dials run at once and one connection survives, Close does not wait for
// a dial in flight, and a held dial ends with its caller's context.
func TestStressPeerRedial(t *testing.T) {
	t.Run("racing re-dials adopt one connection", func(t *testing.T) {
		g := newGatedDialer()
		p := brokenPeer(t, g)
		got := make(chan *Client, 2)
		for i := 0; i < 2; i++ {
			go func() {
				c, err := p.Client(context.Background())
				if err != nil {
					t.Error(err)
				}
				got <- c
			}()
		}
		// Both dials are in flight before either is let go: neither waits
		// for the other.
		g.await(t, 2)
		g.release <- struct{}{}
		g.release <- struct{}{}
		a, b := <-got, <-got
		if a == nil || a != b || !a.Healthy() {
			t.Fatalf("racing re-dials returned %p and %p, want one healthy connection", a, b)
		}
		g.mu.Lock()
		raced := g.conns[1:]
		g.mu.Unlock()
		closed := 0
		for _, c := range raced {
			if c.closed.Load() {
				closed++
			}
		}
		if len(raced) != 2 || closed != 1 {
			t.Fatalf("%d re-dialled connections, %d closed; want 2 and the loser's closed", len(raced), closed)
		}
		if c, err := p.Client(context.Background()); err != nil || c != a {
			t.Fatalf("after the race Client = %p, %v; want the adopted %p", c, err, a)
		}
	})

	t.Run("Close does not wait for a dial", func(t *testing.T) {
		g := newGatedDialer()
		p := brokenPeer(t, g)
		errc := make(chan error, 1)
		go func() {
			_, err := p.Client(context.Background())
			errc <- err
		}()
		g.await(t, 1)
		closed := make(chan struct{})
		go func() {
			p.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(time.Second):
			t.Fatal("Close waited for a dial in flight")
		}
		g.release <- struct{}{}
		if err := <-errc; !errors.Is(err, kverr.ErrClosed) {
			t.Fatalf("a dial that finished after Close: Client = %v, want ErrClosed", err)
		}
		g.mu.Lock()
		late := g.conns[len(g.conns)-1]
		g.mu.Unlock()
		if !late.closed.Load() {
			t.Fatal("the connection dialled after Close was left open")
		}
	})

	t.Run("a held dial ends with the caller's context", func(t *testing.T) {
		g := newGatedDialer()
		p := brokenPeer(t, g)
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		defer cancel()
		errc := make(chan error, 1)
		go func() {
			_, err := p.Client(ctx)
			errc <- err
		}()
		select {
		case err := <-errc:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("Client under an expiring context = %v, want DeadlineExceeded", err)
			}
		case <-time.After(time.Second):
			t.Fatal("a held dial outlived its caller's context by a second")
		}
	})
}
