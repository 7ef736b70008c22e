package kv

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/kvnet"
	"repro/internal/lsm"
)

// DialCluster connects to a replicated cluster of servers and returns an
// Engine that survives node failure. Every key is stored on N distinct
// nodes (consistent hashing with per-key replica sets); writes fan out
// to all N replicas and acknowledge at W; reads ask R of the N — rotating
// which, so load is even and every replica keeps being compared — and
// resolve the newest version among the answers, with R+W > N so any R
// replicas include one that took any acknowledged write. A read that
// finds the replicas it asked in disagreement repairs the stale ones
// before it answers: a client never reads a value and then an older one.
// A replica that fails or stays silent costs a read one hedge delay
// (the next replica is asked as well), not the request timeout. A node
// going down costs no availability while N−W (writes) and N−R (reads)
// tolerate it: missed writes park as hints on live nodes and replay when
// the node returns, and a ping-based failure detector routes requests
// away from dead peers. Defaults: N=3, W=2, R=2 — see WithReplication.
// Writes that were never acknowledged (an error or a cancelled context
// came back) may or may not become visible later; once a read has
// returned one, later reads do not go back.
//
// The cluster is operated by the clients: any number of DialCluster
// engines may point at the same servers, and the servers themselves
// need no replication configuration (they are plain Dial/NewServer
// nodes).
func DialCluster(addrs []string, opts ...Option) (Engine, error) {
	cfg := defaultConfig(entryCluster)
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if len(addrs) == 0 {
		return nil, fmt.Errorf("kv: no cluster addresses: %w", ErrConfig)
	}
	rt, err := cluster.DialCluster(addrs, cluster.Options{
		ReplicationFactor: cfg.replicationN,
		WriteQuorum:       cfg.replicationW,
		ReadQuorum:        cfg.replicationR,
		RequestTimeout:    cfg.requestTimeout,
		DialTimeout:       cfg.dialTimeout,
	})
	if err != nil {
		return nil, err
	}
	eng := &clusterEngine{cfg: cfg, rt: rt}
	if cfg.statsAddr != "" {
		stats, err := startStatsServer(cfg.statsAddr, eng)
		if err != nil {
			eng.Close()
			return nil, err
		}
		eng.stats = stats
	}
	return eng, nil
}

// clusterEngine adapts the quorum router to the Engine interface.
type clusterEngine struct {
	cfg    config
	rt     *cluster.Router
	closed atomic.Bool
	stats  *statsServer // nil unless WithStatsHandler
}

func (e *clusterEngine) Put(ctx context.Context, key, value []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	return e.rt.Put(ctx, key, value)
}

func (e *clusterEngine) Get(ctx context.Context, key []byte) ([]byte, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	return e.rt.Get(ctx, key)
}

func (e *clusterEngine) Delete(ctx context.Context, key []byte) error {
	if e.closed.Load() {
		return ErrClosed
	}
	return e.rt.Delete(ctx, key)
}

func (e *clusterEngine) Write(ctx context.Context, b *Batch) error {
	if e.closed.Load() {
		return ErrClosed
	}
	if b == nil || b.Len() == 0 {
		return nil
	}
	if b.SizeBytes() > MaxBatchBytes {
		return fmt.Errorf("%w: %d bytes > %d", ErrBatchTooLarge, b.SizeBytes(), MaxBatchBytes)
	}
	ops := make([]kvnet.BatchOp, b.Len())
	for i := 0; i < b.Len(); i++ {
		key, value, del := b.wb.Op(i)
		ops[i] = kvnet.BatchOp{Delete: del, Key: key, Value: value}
	}
	return e.rt.Write(ctx, ops)
}

func (e *clusterEngine) NewIterator(ctx context.Context, start, end []byte) (Iterator, error) {
	return openRange(ctx, e.closed.Load(), start, end, func(start, end []byte) (Iterator, error) {
		return asIterator(e.rt.NewIterator(ctx, start, end))
	})
}

// Snapshot pins a view on every live node; the client holds only the
// handles (see cluster.Snapshot).
func (e *clusterEngine) Snapshot(ctx context.Context) (Snapshot, error) {
	if err := guard(ctx, e.closed.Load()); err != nil {
		return nil, err
	}
	sn, err := e.rt.Snapshot(ctx)
	if err != nil {
		return nil, err
	}
	return &clusterSnapshot{Snapshot: sn, engineClosed: &e.closed}, nil
}

func (e *clusterEngine) Flush(ctx context.Context) error {
	if e.closed.Load() {
		return ErrClosed
	}
	return e.rt.FlushAll(ctx)
}

func (e *clusterEngine) Compact(ctx context.Context, opts *CompactOptions) (*CompactionInfo, error) {
	if e.closed.Load() {
		return nil, ErrClosed
	}
	strategy, k := e.cfg.compactSchedule(opts)
	byNode, err := e.rt.CompactAll(ctx, strategy, k)
	if err != nil {
		return nil, err
	}
	results := make([]*lsm.CompactionResult, 0, len(byNode))
	for _, res := range byNode {
		results = append(results, res)
	}
	return compactionInfo(strategy, results...), nil
}

func (e *clusterEngine) Stats(ctx context.Context) (Stats, error) {
	if e.closed.Load() {
		return Stats{}, ErrClosed
	}
	byNode, err := e.rt.StatsAll(ctx)
	if err != nil {
		return Stats{}, err
	}
	var sum lsm.Stats
	for _, st := range byNode {
		sum.Add(*st)
	}
	out := statsFromLSM(sum, "cluster", 0)
	m := e.rt.Metrics()
	out.Cluster = &m
	return out, nil
}

// Close shuts down the router: background convergence work stops and
// every node connection closes. Like the single-node remote backend it
// does not close the servers, and it is idempotent.
func (e *clusterEngine) Close() error {
	if !e.closed.CompareAndSwap(false, true) {
		return nil
	}
	if e.stats != nil {
		e.stats.Close()
	}
	return e.rt.Close()
}

func (e *clusterEngine) statsListenAddr() string {
	if e.stats == nil {
		return ""
	}
	return e.stats.Addr()
}

// asIterator hands a merged cluster scan out as an Iterator, and a
// failed open as a nil interface rather than a typed nil.
func asIterator(it *cluster.Iterator, err error) (Iterator, error) {
	if err != nil {
		return nil, err
	}
	return it, nil
}

// clusterSnapshot adapts cluster.Snapshot to Snapshot.
type clusterSnapshot struct {
	*cluster.Snapshot
	engineClosed *atomic.Bool
	released     atomic.Bool
}

func (s *clusterSnapshot) NewIterator(ctx context.Context, start, end []byte) (Iterator, error) {
	return openRange(ctx, s.released.Load() || s.engineClosed.Load(), start, end, func(start, end []byte) (Iterator, error) {
		return asIterator(s.Snapshot.NewIterator(ctx, start, end))
	})
}

func (s *clusterSnapshot) Release() {
	if s.released.CompareAndSwap(false, true) {
		s.Snapshot.Release()
	}
}

var _ Engine = (*clusterEngine)(nil)
