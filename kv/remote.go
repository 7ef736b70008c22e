package kv

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/kvnet"
)

// remoteEngine speaks the kvnet protocol to one server over one
// multiplexed connection: concurrent operations share it, and a cancelled
// operation is withdrawn by tag without disturbing the others. Only a
// broken transport (the server went away, or reaped an idle connection)
// makes the engine re-dial, on the next operation (see kvnet.Peer).
type remoteEngine struct {
	cfg    config
	peer   *kvnet.Peer
	closed atomic.Bool
}

func newRemoteEngine(cfg config, addr string) (*remoteEngine, error) {
	dial := cfg.dial
	if dial == nil {
		dial = kvnet.TCPDialer(cfg.dialTimeout)
	}
	e := &remoteEngine{cfg: cfg, peer: kvnet.NewPeer(addr, dial)}
	// Dial eagerly so an unreachable address fails at Dial, not at the
	// first operation.
	if _, err := e.peer.Client(context.Background()); err != nil {
		return nil, err
	}
	return e, nil
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
	c, err := e.peer.Client(ctx)
	if err != nil {
		return err
	}
	return c.Put(ctx, key, value)
}

func (e *remoteEngine) Get(ctx context.Context, key []byte) ([]byte, error) {
	c, err := e.peer.Client(ctx)
	if err != nil {
		return nil, err
	}
	return c.Get(ctx, key)
}

func (e *remoteEngine) Delete(ctx context.Context, key []byte) error {
	c, err := e.peer.Client(ctx)
	if err != nil {
		return err
	}
	return c.Delete(ctx, key)
}

// wireOps converts b to the ops a kvnet write ships: nil for an empty
// batch, and ErrBatchTooLarge past MaxBatchBytes — checked before shipping,
// since a server would reject it anyway and an over-cap batch can also
// exceed the wire frame limit.
func (b *Batch) wireOps() ([]kvnet.BatchOp, error) {
	if b == nil || b.Len() == 0 {
		return nil, nil
	}
	if b.SizeBytes() > MaxBatchBytes {
		return nil, fmt.Errorf("%w: %d bytes > %d", ErrBatchTooLarge, b.SizeBytes(), MaxBatchBytes)
	}
	ops := make([]kvnet.BatchOp, b.Len())
	for i := range ops {
		key, value, del := b.wb.Op(i)
		ops[i] = kvnet.BatchOp{Delete: del, Key: key, Value: value}
	}
	return ops, nil
}

func (e *remoteEngine) Write(ctx context.Context, b *Batch) error {
	ops, err := b.wireOps()
	if ops == nil {
		return err
	}
	c, err := e.peer.Client(ctx)
	if err != nil {
		return err
	}
	return c.Write(ctx, ops)
}

func (e *remoteEngine) NewIterator(ctx context.Context, start, end []byte) (Iterator, error) {
	return openRange(ctx, e.closed.Load(), start, end, func(start, end []byte) (Iterator, error) {
		c, err := e.peer.Client(ctx)
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
	c, err := e.peer.Client(ctx)
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
	c, err := e.peer.Client(ctx)
	if err != nil {
		return err
	}
	return c.Flush(ctx)
}

func (e *remoteEngine) Compact(ctx context.Context, opts *CompactOptions) (*CompactionInfo, error) {
	strategy, k := e.cfg.compactSchedule(opts)
	c, err := e.peer.Client(ctx)
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
	c, err := e.peer.Client(ctx)
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
	e.peer.Close()
	return nil
}

// remoteIterator adapts a server-held stream — one scan under one
// consistent view, fetched a credit's worth at a time — to Iterator. It
// holds the stream by value, so a scan allocates the iterator alone. The
// stream's error surfaces in its Valid, so Valid records it here.
type remoteIterator struct {
	e      *remoteEngine
	st     kvnet.Stream
	err    error
	closed bool
}

func (it *remoteIterator) Valid() bool {
	if it.err != nil || it.closed {
		return false
	}
	if it.st.Valid() {
		return true
	}
	it.err = it.e.closedErr(it.st.Err())
	return false
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
