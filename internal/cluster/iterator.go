package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/kverr"
	"repro/internal/kvnet"
)

// Merged scans. A range scan must see every key the cluster has
// acknowledged, so it reads every node: one kvnet stream per node — one
// server-side scan under one read view of that node, fetched a credit's
// worth at a time — merged here by key. Of each key the highest-stamped
// record wins; tombstones and the reserved hint namespace never surface.
// The client holds at most one chunk per node, whatever the database's
// size.
//
// A scan tolerates as many failed nodes as quorum arithmetic allows (N−R),
// whether a node is down when the scan opens or fails in the middle of it:
// any R nodes include a replica that took each acknowledged write, since
// R+W > N. Past that some key could have lost every holder of its newest
// version, and the scan fails with ErrUnavailable rather than end short.
//
// A stream waits under its caller's context alone. A node that goes silent
// under it is cut off by the failure detector: a ping that times out
// closes the node's shared connection, and the stream with it.

// errNodeDown stands for a node the failure detector has marked down.
var errNodeDown = fmt.Errorf("cluster: node marked down: %w", kverr.ErrUnavailable)

// errScanClosed answers a scan or snapshot used after its own Close or
// Release, or after the router's.
var errScanClosed = fmt.Errorf("cluster: scan closed: %w", kverr.ErrClosed)

// spareNodes is how many nodes a scan may lose: N−R, over the nodes the
// ring has.
func (rt *Router) spareNodes() int {
	n := min(rt.opts.ReplicationFactor, len(rt.conns))
	return n - min(rt.opts.ReadQuorum, n)
}

// Iterator is a merged scan over the cluster; see NewIterator. It is not
// safe for concurrent use, and must be Closed.
type Iterator struct {
	rt      *Router
	ctx     context.Context
	streams []kvnet.Stream  // by node
	open    []*kvnet.Stream // the streams that opened, failed ones included
	spare   int             // node failures still tolerable
	cur     *kvnet.Stream   // the stream holding the current entry's winner
	value   []byte          // the current record's user value
	err     error
	closed  bool
}

// NewIterator opens a merged scan of start <= key < end (nil bounds are
// open) over the live store of every node the failure detector has not
// marked down, positioned at the first entry. Each node's stream is one
// consistent view of that node, so a batch — applied atomically on each
// replica — is never seen torn by one pass.
func (rt *Router) NewIterator(ctx context.Context, start, end []byte) (*Iterator, error) {
	return rt.merge(ctx, func(node int, st *kvnet.Stream) error {
		return rt.stream(ctx, node, st, start, end)
	})
}

// stream opens st on a scan of node's live store.
func (rt *Router) stream(ctx context.Context, node int, st *kvnet.Stream, start, end []byte) error {
	if rt.health.isDown(node) {
		return errNodeDown
	}
	c, err := rt.client(node)
	if err != nil {
		return err
	}
	return c.OpenStream(ctx, st, start, end)
}

// merge opens one stream per node through open and positions the merge.
func (rt *Router) merge(ctx context.Context, open func(node int, st *kvnet.Stream) error) (*Iterator, error) {
	it := &Iterator{rt: rt, ctx: ctx, streams: make([]kvnet.Stream, len(rt.conns)), spare: rt.spareNodes()}
	for node := range it.streams {
		if err := open(node, &it.streams[node]); err != nil {
			if it.lose(err); it.err != nil {
				it.Close()
				return nil, it.err
			}
			continue
		}
		it.open = append(it.open, &it.streams[node])
	}
	it.settle()
	return it, nil
}

// lose accounts for a node whose stream failed or never opened, and ends
// the scan when that was one too many — or when the failure was the
// caller's context expiring or the router closing, which no node causes.
func (it *Iterator) lose(err error) {
	switch {
	case it.ctx.Err() != nil:
		it.err = err
	case it.rt.baseCtx.Err() != nil:
		it.err = errScanClosed
	default:
		if it.spare--; it.spare < 0 {
			it.err = fmt.Errorf("cluster: scan lost more than %d nodes: %w (last: %w)", it.rt.spareNodes(), kverr.ErrUnavailable, err)
		}
	}
}

// settle positions the iterator at the smallest key any stream holds that
// is a live user record, advancing past tombstones and hints.
func (it *Iterator) settle() {
	for it.err == nil {
		it.cur = nil
		var best uint64
		for _, st := range it.open {
			if !st.Valid() {
				continue
			}
			stamp, _ := kvnet.RecordStamp(st.Value())
			if it.cur == nil {
				it.cur, best = st, stamp
			} else if c := bytes.Compare(st.Key(), it.cur.Key()); c < 0 || c == 0 && stamp > best {
				it.cur, best = st, stamp
			}
		}
		if it.cur == nil {
			return
		}
		if !bytes.HasPrefix(it.cur.Key(), []byte(hintPrefix)) {
			rec, err := decodeRecord(it.cur.Value())
			if err != nil {
				it.cur, it.err = nil, err
				return
			}
			if !rec.Tombstone {
				it.value = rec.Value
				return
			}
		}
		it.advance()
	}
	it.cur = nil
}

// advance moves every stream holding the current key past it; the
// winner's goes last, since the key is read from its chunk.
func (it *Iterator) advance() {
	key := it.cur.Key()
	for _, st := range it.open {
		if st != it.cur && st.Valid() && bytes.Equal(st.Key(), key) {
			it.step(st)
		}
	}
	it.step(it.cur)
}

func (it *Iterator) step(st *kvnet.Stream) {
	if st.Next(); st.Err() != nil {
		it.lose(st.Err())
		st.Close()
	}
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.cur != nil }

// Key returns the current key; it aliases a stream's chunk and is valid
// only until the next call to Next or Close.
func (it *Iterator) Key() []byte {
	if it.cur == nil {
		return nil
	}
	return it.cur.Key()
}

// Value returns the current value; same caveats as Key.
func (it *Iterator) Value() []byte {
	if it.cur == nil {
		return nil
	}
	return it.value
}

// Next advances to the following entry. After Close, or once the router
// has closed, it records kverr.ErrClosed.
func (it *Iterator) Next() {
	switch {
	case it.err != nil:
	case it.closed || it.rt.baseCtx.Err() != nil:
		it.cur, it.err = nil, errScanClosed
	case it.cur != nil:
		it.advance()
		it.settle()
	}
}

// Err returns the error that ended the scan early: the context's,
// kverr.ErrClosed, kverr.ErrUnavailable when more than N−R nodes failed,
// or kverr.ErrCorrupt for a record that does not decode. A drained scan
// returns nil.
func (it *Iterator) Err() error { return it.err }

// Close ends every node's stream. Idempotent.
func (it *Iterator) Close() error {
	it.closed, it.cur = true, nil
	for _, st := range it.open {
		st.Close()
	}
	return nil
}

// Snapshot is a point-in-time view of the cluster: one server-held
// snapshot per node that was live when it was taken. Its Get and its
// iterators all read that same fixed set of views — never a per-call
// quorum subset, which could read one key of a batch before the batch and
// another after it. The client holds only handles; each view lives under
// its node's lease (see kvnet). Safe for concurrent use; must be Released.
type Snapshot struct {
	rt       *Router
	views    []*kvnet.Snapshot // by node; nil where the node was down
	released atomic.Bool
}

// Snapshot pins a view on every node the failure detector has not marked
// down, tolerating N−R that are down or fail to answer.
func (rt *Router) Snapshot(ctx context.Context) (*Snapshot, error) {
	s := &Snapshot{rt: rt, views: make([]*kvnet.Snapshot, len(rt.conns))}
	spare := rt.spareNodes()
	for node := range s.views {
		err := errNodeDown
		if !rt.health.isDown(node) {
			err = rt.do(ctx, node, func(actx context.Context, c *kvnet.Client) (err error) {
				s.views[node], err = c.Snapshot(actx)
				return err
			})
		}
		if err == nil {
			continue
		}
		if spare--; ctx.Err() != nil || spare < 0 {
			s.Release()
			if ctx.Err() == nil {
				err = fmt.Errorf("cluster: snapshot lost more than %d nodes: %w (last: %w)", rt.spareNodes(), kverr.ErrUnavailable, err)
			}
			return nil, err
		}
	}
	return s, nil
}

// NewIterator is Router.NewIterator through the snapshot's views.
func (s *Snapshot) NewIterator(ctx context.Context, start, end []byte) (*Iterator, error) {
	if s.released.Load() || s.rt.baseCtx.Err() != nil {
		return nil, errScanClosed
	}
	return s.rt.merge(ctx, func(node int, st *kvnet.Stream) error {
		if s.views[node] == nil {
			return errNodeDown
		}
		return s.views[node].OpenStream(ctx, st, start, end)
	})
}

// Get returns key's value as of the snapshot, or kverr.ErrNotFound. It is
// a scan of the one key, so it reads what the snapshot's iterators read.
func (s *Snapshot) Get(ctx context.Context, key []byte) ([]byte, error) {
	if err := checkUserKey(key); err != nil {
		return nil, err
	}
	it, err := s.NewIterator(ctx, key, append(key[:len(key):len(key)], 0))
	if err != nil {
		return nil, err
	}
	defer it.Close()
	if !it.Valid() {
		if it.Err() != nil {
			return nil, it.Err()
		}
		return nil, kverr.ErrNotFound
	}
	return append([]byte{}, it.Value()...), nil
}

// Release drops every node's view. Idempotent.
func (s *Snapshot) Release() {
	if !s.released.CompareAndSwap(false, true) {
		return
	}
	for _, sn := range s.views {
		if sn != nil {
			sn.Release()
		}
	}
}
