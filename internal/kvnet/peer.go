package kvnet

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kverr"
)

// DefaultDialTimeout bounds a connect when the caller sets no bound of its
// own: Dial, and kv's Dial and DialCluster, all start from it.
const DefaultDialTimeout = 10 * time.Second

// DialFunc opens a transport to the server at addr. It gives up when ctx
// ends, returning an error that wraps ctx's.
type DialFunc func(ctx context.Context, addr string) (net.Conn, error)

// TCPDialer dials TCP, each connect bounded by timeout as well as by its
// context. Outside tests it is the module's one TCP dial.
func TCPDialer(timeout time.Duration) DialFunc {
	d := &net.Dialer{Timeout: timeout}
	return func(ctx context.Context, addr string) (net.Conn, error) {
		return d.DialContext(ctx, "tcp", addr)
	}
}

// Peer is the connection to one server address, re-dialled when its
// transport breaks (see Connections in the package comment).
type Peer struct {
	addr   string
	dial   DialFunc
	c      atomic.Pointer[Client]
	closed atomic.Bool
	mu     sync.Mutex // orders installing c against Close; never held across a dial
}

// NewPeer returns the peer for addr; nothing is dialled until Client.
func NewPeer(addr string, dial DialFunc) *Peer {
	return &Peer{addr: addr, dial: dial}
}

// Client returns the live connection, or dials one under ctx if there is
// none or the last one broke. After Close it fails with kverr.ErrClosed.
func (p *Peer) Client(ctx context.Context) (*Client, error) {
	if c := p.c.Load(); c != nil && c.Healthy() {
		return c, nil
	}
	if p.closed.Load() {
		return nil, fmt.Errorf("kvnet: connection to %s closed: %w", p.addr, kverr.ErrClosed)
	}
	conn, err := p.dial(ctx, p.addr)
	if err != nil {
		return nil, fmt.Errorf("kvnet: dial %s: %w", p.addr, err)
	}
	fresh := NewClient(conn)
	p.mu.Lock()
	c := p.c.Load()
	if !p.closed.Load() && (c == nil || !c.Healthy()) {
		p.c.Store(fresh)
		c, fresh = fresh, nil
	}
	p.mu.Unlock()
	if fresh != nil {
		// Close won, or a racing re-dial installed its connection first.
		fresh.Close()
		return p.Client(ctx)
	}
	return c, nil
}

// Close closes the connection and makes every later Client fail. It is
// idempotent.
func (p *Peer) Close() {
	p.mu.Lock()
	p.closed.Store(true)
	c := p.c.Swap(nil)
	p.mu.Unlock()
	if c != nil {
		c.Close()
	}
}
