package kv

import (
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	"repro/internal/kvnet"
)

// remoteEngine speaks the kvnet protocol to one server over one
// multiplexed connection: concurrent operations share it, and a cancelled
// operation is withdrawn by tag without disturbing the others. Only a
// broken transport (the server went away, or reaped an idle connection)
// makes the engine re-dial, on the next operation.
type remoteEngine struct {
	addr   string
	cfg    config
	closed atomic.Bool
	stats  *statsServer // nil unless WithStatsHandler

	mu sync.Mutex
	c  *kvnet.Client
}

func newRemoteEngine(cfg config, addr string) (*remoteEngine, error) {
	e := &remoteEngine{addr: addr, cfg: cfg}
	// Dial eagerly so an unreachable address fails at Dial, not at the
	// first operation.
	if _, err := e.client(); err != nil {
		return nil, err
	}
	return e, nil
}

// client returns the live connection, re-dialing if the previous one
// failed. The dial happens outside e.mu: a slow or timing-out dial must
// not hold the lock and queue every other operation on the engine behind
// it for up to the dial timeout. Concurrent re-dials may race; the losers
// close their connections and adopt the winner's.
func (e *remoteEngine) client() (*kvnet.Client, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	e.mu.Lock()
	if e.c != nil && e.c.Healthy() {
		c := e.c
		e.mu.Unlock()
		return c, nil
	}
	e.mu.Unlock()

	conn, err := net.DialTimeout("tcp", e.addr, e.cfg.dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("kv: dial %s: %w", e.addr, err)
	}
	c := kvnet.NewClient(conn)

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed.Load() {
		// Close raced in while the dial was in flight: don't leak the
		// fresh connection and don't resurrect a closed engine.
		c.Close()
		return nil, ErrClosed
	}
	if e.c != nil && e.c.Healthy() {
		// Another goroutine finished its re-dial first; adopt its
		// connection so the engine keeps to one.
		c.Close()
		return e.c, nil
	}
	e.c = c
	return c, nil
}

// closedErr maps an error observed after the engine was closed — closing
// tears the connection down under whatever was in flight — to ErrClosed.
func (e *remoteEngine) closedErr(err error) error {
	if err != nil && e.closed.Load() {
		return ErrClosed
	}
	return err
}

func (e *remoteEngine) Put(ctx context.Context, key, value []byte) error {
	c, err := e.client()
	if err != nil {
		return err
	}
	return c.Put(ctx, key, value)
}

func (e *remoteEngine) Get(ctx context.Context, key []byte) ([]byte, error) {
	c, err := e.client()
	if err != nil {
		return nil, err
	}
	return c.Get(ctx, key)
}

func (e *remoteEngine) Delete(ctx context.Context, key []byte) error {
	c, err := e.client()
	if err != nil {
		return err
	}
	return c.Delete(ctx, key)
}

func (e *remoteEngine) Write(ctx context.Context, b *Batch) error {
	if b == nil || b.Len() == 0 {
		return nil
	}
	// Enforce the batch cap before shipping: the server would reject it
	// anyway, and an over-cap batch can also exceed the wire frame limit.
	if b.SizeBytes() > MaxBatchBytes {
		return fmt.Errorf("%w: %d bytes > %d", ErrBatchTooLarge, b.SizeBytes(), MaxBatchBytes)
	}
	ops := make([]kvnet.BatchOp, b.Len())
	for i := 0; i < b.Len(); i++ {
		key, value, del := b.wb.Op(i)
		ops[i] = kvnet.BatchOp{Delete: del, Key: key, Value: value}
	}
	c, err := e.client()
	if err != nil {
		return err
	}
	return c.Write(ctx, ops)
}

func (e *remoteEngine) NewIterator(ctx context.Context, start, end []byte) (Iterator, error) {
	return openRange(ctx, e.closed.Load(), start, end, func(start, end []byte) (Iterator, error) {
		c, err := e.client()
		if err != nil {
			return nil, err
		}
		it := &remoteIterator{e: e}
		if err := c.OpenStream(ctx, &it.st, start, end); err != nil {
			return nil, e.closedErr(err)
		}
		return it, nil
	})
}

// Snapshot pins a point-in-time view on the server; the client holds only
// its handle. The view lives on the engine's current connection, under the
// server's lease: a snapshot left unused for longer, or whose connection
// broke, answers ErrClosed or the transport's error from then on.
func (e *remoteEngine) Snapshot(ctx context.Context) (Snapshot, error) {
	c, err := e.client()
	if err != nil {
		return nil, err
	}
	sn, err := c.Snapshot(ctx)
	if err != nil {
		return nil, e.closedErr(err)
	}
	return &serverSnapshot{e: e, sn: sn}, nil
}

func (e *remoteEngine) Flush(ctx context.Context) error {
	c, err := e.client()
	if err != nil {
		return err
	}
	return c.Flush(ctx)
}

func (e *remoteEngine) Compact(ctx context.Context, opts *CompactOptions) (*CompactionInfo, error) {
	strategy, k := e.cfg.compactSchedule(opts)
	c, err := e.client()
	if err != nil {
		return nil, err
	}
	res, err := c.Compact(ctx, strategy, k)
	if err != nil {
		return nil, err
	}
	return compactionInfo(strategy, res), nil
}

func (e *remoteEngine) Stats(ctx context.Context) (Stats, error) {
	c, err := e.client()
	if err != nil {
		return Stats{}, err
	}
	st, err := c.Stats(ctx)
	if err != nil {
		return Stats{}, err
	}
	return statsFromLSM(*st, "remote", 0), nil
}

// Close closes the connection. Unlike the embedded backends, closing a
// remote engine does not close the server's store; it is idempotent.
func (e *remoteEngine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	if e.stats != nil {
		e.stats.Close()
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.c != nil {
		return e.c.Close()
	}
	return nil
}

func (e *remoteEngine) statsListenAddr() string {
	if e.stats == nil {
		return ""
	}
	return e.stats.Addr()
}

// remoteIterator adapts a server-held stream — one scan under one
// consistent view, fetched a credit's worth at a time — to Iterator. It
// holds the stream by value, so a scan allocates the iterator alone.
type remoteIterator struct {
	e      *remoteEngine
	st     kvnet.Stream
	err    error
	closed bool
}

func (it *remoteIterator) Valid() bool {
	return it.err == nil && !it.closed && it.st.Valid()
}

func (it *remoteIterator) Key() []byte {
	if !it.Valid() {
		return nil
	}
	return it.st.Key()
}

func (it *remoteIterator) Value() []byte {
	if !it.Valid() {
		return nil
	}
	return it.st.Value()
}

func (it *remoteIterator) Next() {
	switch {
	case it.err != nil:
	case it.closed || it.e.closed.Load():
		it.err = ErrClosed
	default:
		it.st.Next()
		it.err = it.e.closedErr(it.st.Err())
	}
}

func (it *remoteIterator) Err() error { return it.err }

func (it *remoteIterator) Close() error {
	it.closed = true
	return it.st.Close()
}

// serverSnapshot is a handle on a snapshot the server holds.
type serverSnapshot struct {
	e        *remoteEngine
	sn       *kvnet.Snapshot
	released atomic.Bool
}

func (s *serverSnapshot) Get(ctx context.Context, key []byte) ([]byte, error) {
	if err := guard(ctx, s.released.Load() || s.e.closed.Load()); err != nil {
		return nil, err
	}
	v, err := s.sn.Get(ctx, key)
	return v, s.e.closedErr(err)
}

func (s *serverSnapshot) NewIterator(ctx context.Context, start, end []byte) (Iterator, error) {
	return openRange(ctx, s.released.Load() || s.e.closed.Load(), start, end, func(start, end []byte) (Iterator, error) {
		it := &remoteIterator{e: s.e}
		if err := s.sn.OpenStream(ctx, &it.st, start, end); err != nil {
			return nil, s.e.closedErr(err)
		}
		return it, nil
	})
}

func (s *serverSnapshot) Release() {
	if s.released.CompareAndSwap(false, true) {
		s.sn.Release()
	}
}

var _ Engine = (*remoteEngine)(nil)
