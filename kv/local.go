package kv

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/iterator"
	"repro/internal/lsm"
	"repro/internal/store"
)

// localEngine adapts the embedded store — one shard or many — to the public
// Engine interface. Error values are already canonical (the internal layers
// alias internal/kverr), so no translation happens here.
type localEngine struct {
	st     *store.Store
	cfg    config
	closed atomic.Bool
}

func (e *localEngine) Put(ctx context.Context, key, value []byte) error {
	return e.st.PutContext(ctx, key, value)
}

func (e *localEngine) Get(ctx context.Context, key []byte) ([]byte, error) {
	return e.st.GetContext(ctx, key)
}

func (e *localEngine) Delete(ctx context.Context, key []byte) error {
	return e.st.DeleteContext(ctx, key)
}

func (e *localEngine) Write(ctx context.Context, b *Batch) error {
	if b == nil {
		return nil
	}
	return e.st.WriteContext(ctx, &b.wb)
}

func (e *localEngine) NewIterator(ctx context.Context, start, end []byte) (Iterator, error) {
	return openRange(ctx, e.closed.Load(), start, end, func(start, end []byte) (Iterator, error) {
		it, release, err := e.st.NewIterator(start, end)
		if err != nil {
			return nil, err
		}
		return &localIterator{ctx: ctx, it: it, release: release, engineClosed: &e.closed}, nil
	})
}

func (e *localEngine) Snapshot(ctx context.Context) (Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s, err := e.st.Snapshot()
	if err != nil {
		return nil, err
	}
	return &localSnapshot{s: s, engineClosed: &e.closed}, nil
}

func (e *localEngine) Flush(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return e.st.Flush()
}

func (e *localEngine) Compact(ctx context.Context, opts *CompactOptions) (*CompactionInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	strategy, k := e.cfg.compactSchedule(opts)
	res, err := e.st.MajorCompact(strategy, k, 1)
	if err != nil {
		return nil, err
	}
	return compactionInfo(strategy, res), nil
}

func (e *localEngine) Stats(ctx context.Context) (Stats, error) {
	if err := guard(ctx, e.closed.Load()); err != nil {
		return Stats{}, err
	}
	per := e.st.ShardStats()
	var sum lsm.Stats
	for _, ss := range per {
		sum.Add(ss)
	}
	st := statsFromLSM(sum, "local", len(per))
	if len(per) > 1 {
		st.PerShard = make([]Stats, len(per))
		for i, ss := range per {
			st.PerShard[i] = statsFromLSM(ss, "local", 1)
		}
	}
	return st, nil
}

func (e *localEngine) Close() error {
	e.closed.Store(true)
	return e.st.Close()
}

// localIterator adapts an internal merged iterator, adding context expiry
// checks, engine-close detection and the Err/Close protocol.
type localIterator struct {
	ctx          context.Context
	it           iterator.Iterator
	release      func()
	engineClosed *atomic.Bool
	err          error
	closed       bool
	n            int
}

// checkEvery is how many Next steps an iterator takes between context
// checks.
const checkEvery = 128

func (it *localIterator) fail(err error) {
	if it.err == nil {
		it.err = err
	}
	if it.release != nil {
		it.release()
		it.release = nil
	}
}

func (it *localIterator) Valid() bool {
	if it.err != nil || it.closed {
		return false
	}
	if it.engineClosed.Load() {
		it.fail(ErrClosed)
		return false
	}
	if it.it.Valid() {
		return true
	}
	// A merged scan ends early when a source fails mid-stream (a block that
	// flunks its checksum, a read error); the engine's iterator records why,
	// and an exhausted scan must surface it rather than report a clean end.
	if err := lsm.IterErr(it.it); err != nil {
		it.fail(err)
	}
	return false
}

func (it *localIterator) Key() []byte {
	if !it.Valid() {
		return nil
	}
	return it.it.Entry().Key
}

func (it *localIterator) Value() []byte {
	if !it.Valid() {
		return nil
	}
	return it.it.Entry().Value
}

func (it *localIterator) Next() {
	if it.err != nil {
		return
	}
	if it.closed || it.engineClosed.Load() {
		it.fail(ErrClosed)
		return
	}
	it.n++
	if it.n%checkEvery == 0 {
		if err := it.ctx.Err(); err != nil {
			it.fail(err)
			return
		}
	}
	it.it.Next()
}

func (it *localIterator) Err() error { return it.err }

// Close is idempotent: the first call hands the scan back, and fail and
// Close both drop release once they have called it.
func (it *localIterator) Close() error {
	it.closed = true
	if it.release != nil {
		it.release()
		it.release = nil
	}
	return nil
}

// emptyIterator is what reversed bounds produce: no entries, no error.
type emptyIterator struct{}

func (emptyIterator) Valid() bool   { return false }
func (emptyIterator) Key() []byte   { return nil }
func (emptyIterator) Value() []byte { return nil }
func (emptyIterator) Next()         {}
func (emptyIterator) Err() error    { return nil }
func (emptyIterator) Close() error  { return nil }

// localSnapshot adapts an embedded snapshot to the public interface.
type localSnapshot struct {
	s            *store.Snapshot
	engineClosed *atomic.Bool
	released     atomic.Bool
}

func (s *localSnapshot) Get(ctx context.Context, key []byte) ([]byte, error) {
	if err := guard(ctx, s.released.Load() || s.engineClosed.Load()); err != nil {
		return nil, err
	}
	return s.s.Get(key)
}

func (s *localSnapshot) NewIterator(ctx context.Context, start, end []byte) (Iterator, error) {
	return openRange(ctx, s.released.Load() || s.engineClosed.Load(), start, end, func(start, end []byte) (Iterator, error) {
		it, release, err := s.s.NewIterator(start, end)
		if err != nil {
			return nil, err
		}
		// A snapshot iterator takes its own pin on the snapshot's view, so
		// it survives snapshot release; engine close still invalidates it.
		return &localIterator{ctx: ctx, it: it, release: release, engineClosed: s.engineClosed}, nil
	})
}

func (s *localSnapshot) Release() {
	if s.released.CompareAndSwap(false, true) {
		s.s.Release()
	}
}

var _ Engine = (*localEngine)(nil)

// errNotServable reports NewServer misuse; defined here to keep the
// type-assertion logic next to the type it asserts on.
var errNotServable = fmt.Errorf("kv: only engines returned by Open can be served")
