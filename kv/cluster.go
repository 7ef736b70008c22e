package kv

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/kvnet"
	"repro/internal/lsm"
	"repro/internal/store"
)

// remotePageSize is how many entries a cluster iterator (or snapshot
// materialization) pulls per quorum round trip.
const remotePageSize = 512

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
	start, end = normBound(start), normBound(end)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if start != nil && end != nil && bytes.Compare(start, end) >= 0 {
		return emptyIterator{}, nil
	}
	it := &clusterIterator{e: e, ctx: ctx, end: end, next: start, more: true}
	it.fill()
	return it, nil
}

func (e *clusterEngine) Snapshot(ctx context.Context) (Snapshot, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if e.closed.Load() {
		return nil, ErrClosed
	}
	// Materialize the merged, version-resolved keyspace client-side, page
	// by page: isolated from every write after Snapshot returns, but pages
	// are independent quorum views, so a write concurrent with the pulls
	// may be visible in one page and not an earlier one.
	var entries []kvnet.ScanEntry
	var next []byte
	for {
		page, cont, err := e.rt.RangePage(ctx, next, nil, remotePageSize)
		if err != nil {
			return nil, err
		}
		entries = append(entries, page...)
		if cont == nil {
			break
		}
		next = cont
	}
	return &remoteSnapshot{engineClosed: &e.closed, entries: entries}, nil
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
	nodes := make([]lsm.Stats, 0, len(byNode))
	for _, st := range byNode {
		nodes = append(nodes, *st)
	}
	out := statsFromLSM(store.Aggregate(nodes), "cluster", 0)
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

// clusterIterator pages through the cluster's merged key range one
// quorum RangePage at a time. Pages are independent quorum views: a
// concurrent writer may be visible in one page and not the previous.
type clusterIterator struct {
	e    *clusterEngine
	ctx  context.Context
	end  []byte
	next []byte // continuation key for the next page
	more bool   // cluster may have more entries past next

	buf    []kvnet.ScanEntry
	pos    int
	err    error
	closed bool
}

// fill pulls pages until one yields entries, the range is exhausted, or
// an error lands. A page can be empty while more remain — tombstones
// and replication bookkeeping consume page budget without producing
// entries — so exhaustion is signalled by the continuation key, not by
// page size.
func (it *clusterIterator) fill() {
	it.buf, it.pos = nil, 0
	for it.more && it.err == nil {
		if it.e.closed.Load() {
			it.err = ErrClosed
			return
		}
		page, cont, err := it.e.rt.RangePage(it.ctx, it.next, it.end, remotePageSize)
		if err != nil {
			it.err = err
			return
		}
		if cont == nil {
			it.more = false
		} else {
			it.next = cont
		}
		if len(page) > 0 {
			it.buf = page
			return
		}
	}
}

func (it *clusterIterator) Valid() bool {
	return it.err == nil && !it.closed && it.pos < len(it.buf)
}

func (it *clusterIterator) Key() []byte {
	if !it.Valid() {
		return nil
	}
	return it.buf[it.pos].Key
}

func (it *clusterIterator) Value() []byte {
	if !it.Valid() {
		return nil
	}
	return it.buf[it.pos].Value
}

func (it *clusterIterator) Next() {
	if it.closed {
		if it.err == nil {
			it.err = ErrClosed
		}
		return
	}
	if it.err != nil {
		return
	}
	if it.e.closed.Load() {
		it.err = ErrClosed
		return
	}
	it.pos++
	if it.pos >= len(it.buf) {
		it.fill()
	}
}

func (it *clusterIterator) Err() error { return it.err }

func (it *clusterIterator) Close() error {
	it.closed = true
	it.buf = nil
	return nil
}

// remoteSnapshot is a client-side materialized view.
type remoteSnapshot struct {
	engineClosed *atomic.Bool
	released     atomic.Bool
	entries      []kvnet.ScanEntry // sorted by key
}

func (s *remoteSnapshot) Get(ctx context.Context, key []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.released.Load() || s.engineClosed.Load() {
		return nil, ErrClosed
	}
	i := sort.Search(len(s.entries), func(i int) bool {
		return bytes.Compare(s.entries[i].Key, key) >= 0
	})
	if i < len(s.entries) && bytes.Equal(s.entries[i].Key, key) {
		return append([]byte(nil), s.entries[i].Value...), nil
	}
	return nil, ErrNotFound
}

func (s *remoteSnapshot) NewIterator(ctx context.Context, start, end []byte) (Iterator, error) {
	start, end = normBound(start), normBound(end)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if s.released.Load() || s.engineClosed.Load() {
		return nil, ErrClosed
	}
	if start != nil && end != nil && bytes.Compare(start, end) >= 0 {
		return emptyIterator{}, nil
	}
	entries := s.entries
	if start != nil {
		i := sort.Search(len(entries), func(i int) bool {
			return bytes.Compare(entries[i].Key, start) >= 0
		})
		entries = entries[i:]
	}
	if end != nil {
		i := sort.Search(len(entries), func(i int) bool {
			return bytes.Compare(entries[i].Key, end) >= 0
		})
		entries = entries[:i]
	}
	return &sliceIterator{ctx: ctx, entries: entries, engineClosed: s.engineClosed}, nil
}

func (s *remoteSnapshot) Release() { s.released.Store(true) }

// sliceIterator iterates a materialized entry slice.
type sliceIterator struct {
	ctx          context.Context
	entries      []kvnet.ScanEntry
	engineClosed *atomic.Bool
	pos          int
	err          error
	closed       bool
}

func (it *sliceIterator) Valid() bool {
	if it.err != nil || it.closed {
		return false
	}
	if it.engineClosed.Load() {
		it.err = ErrClosed
		return false
	}
	return it.pos < len(it.entries)
}

func (it *sliceIterator) Key() []byte {
	if !it.Valid() {
		return nil
	}
	return it.entries[it.pos].Key
}

func (it *sliceIterator) Value() []byte {
	if !it.Valid() {
		return nil
	}
	return it.entries[it.pos].Value
}

func (it *sliceIterator) Next() {
	if it.closed {
		if it.err == nil {
			it.err = ErrClosed
		}
		return
	}
	if it.err != nil {
		return
	}
	if err := it.ctx.Err(); err != nil {
		it.err = err
		return
	}
	it.pos++
}

func (it *sliceIterator) Err() error { return it.err }

func (it *sliceIterator) Close() error {
	it.closed = true
	return nil
}

var _ Engine = (*clusterEngine)(nil)
