package main

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"path/filepath"
	"sync/atomic"

	"repro/internal/kvnet"
	"repro/internal/lsm"
	"repro/internal/store"
	"repro/internal/vfs"
	"repro/kv"
)

// counters is the subset of engine statistics the harness reports, in one
// shape whether it came from the public kv.Stats of an embedded engine or
// was summed over the in-process server nodes of a network workload.
type counters struct {
	tables, flushes, minorCompactions        int
	tableBytes, bytesFlushed, bytesCompacted uint64
	picks                                    uint64
	stallNanos                               int64
	groupCommits, groupedWrites, walSyncs    uint64
	cacheHits, cacheMisses                   uint64
	cacheBalance                             float64
	filterNegatives, filterFalsePositives    uint64
	readRepairs, hintsParked                 uint64
	unitWrites                               []uint64 // grouped writes per shard (remote) or per node (cluster)
	majorCompactions                         int
	memtableKeys                             int
}

func sumPicks(m map[string]uint64) uint64 {
	var n uint64
	for _, v := range m {
		n += v
	}
	return n
}

func countersFromKV(st kv.Stats) counters {
	return counters{
		tables: st.Tables, flushes: st.Flushes, minorCompactions: st.MinorCompactions,
		tableBytes: st.TableBytes, bytesFlushed: st.BytesFlushed, bytesCompacted: st.BytesCompacted,
		picks: sumPicks(st.CompactionPicks), stallNanos: st.WriteStallNanos,
		groupCommits: st.GroupCommits, groupedWrites: st.GroupedWrites, walSyncs: st.WALSyncs,
		cacheHits: st.BlockCacheHits, cacheMisses: st.BlockCacheMisses, cacheBalance: st.BlockCacheShardBalance,
		filterNegatives: st.FilterNegatives, filterFalsePositives: st.FilterFalsePositives,
	}
}

func countersFromLSM(st lsm.Stats) counters {
	return counters{
		tables: st.Tables, flushes: st.Flushes, minorCompactions: st.MinorCompactions,
		tableBytes: st.TableBytes, bytesFlushed: st.BytesFlushed, bytesCompacted: st.BytesCompacted,
		picks: sumPicks(st.CompactionPicks), stallNanos: st.WriteStallTime.Nanoseconds(),
		groupCommits: st.GroupCommits, groupedWrites: st.GroupedWrites, walSyncs: st.WALSyncs,
		cacheHits: st.BlockCacheHits, cacheMisses: st.BlockCacheMisses, cacheBalance: st.BlockCacheShardBalance,
		filterNegatives: st.FilterNegatives, filterFalsePositives: st.FilterFalsePositives,
	}
}

// add sums o into c; the cache balance of a sum is the worst member's.
func (c *counters) add(o counters) {
	c.tables += o.tables
	c.flushes += o.flushes
	c.minorCompactions += o.minorCompactions
	c.tableBytes += o.tableBytes
	c.bytesFlushed += o.bytesFlushed
	c.bytesCompacted += o.bytesCompacted
	c.picks += o.picks
	c.stallNanos += o.stallNanos
	c.groupCommits += o.groupCommits
	c.groupedWrites += o.groupedWrites
	c.walSyncs += o.walSyncs
	c.cacheHits += o.cacheHits
	c.cacheMisses += o.cacheMisses
	if o.cacheBalance > c.cacheBalance {
		c.cacheBalance = o.cacheBalance
	}
	c.filterNegatives += o.filterNegatives
	c.filterFalsePositives += o.filterFalsePositives
}

// node is one in-process server of a network workload.
type node struct {
	dir string
	db  interface {
		kvnet.Engine
		Close() error
	}
	shardStats func() []lsm.Stats // 2-shard store only
	srv        *kvnet.Server
	served     chan struct{} // closed when the Serve goroutine has returned
}

// system is one set-up backend: the engine the clients drive plus, for the
// network workloads, the server nodes behind it.
type system struct {
	w     workload
	dir   string
	eng   kv.Engine
	nodes []*node
	major *kv.CompactionInfo // read_cold's set-up compaction
	// acked is, per record slot, the last version whose Put was
	// acknowledged; the load writes version 1.
	acked []atomic.Uint32
}

func embeddedOptions(w workload, auto string, fsys vfs.FS) []kv.Option {
	return []kv.Option{
		kv.WithShards(1),
		kv.WithMemtableBytes(memtableBytes),
		kv.WithBlockCacheBytes(w.cacheBytes),
		kv.WithAutoCompact(auto),
		kv.WithCompactionStrategy(livePolicy, fanIn),
		kv.WithFS(fsys),
	}
}

// setUp builds the workload's backend under dir, loads the records at
// version 1 and flushes, so the first warm-up op finds everything on disk.
// auto names the live picker; tr wraps the filesystem and the server-side
// engines (pass-through wrappers unless a traced phase switches tr on).
func setUp(ctx context.Context, w workload, in *inputs, dir, auto string, tr *tracer) (*system, error) {
	s := &system{w: w, dir: dir, acked: make([]atomic.Uint32, w.records)}
	for i := range s.acked {
		s.acked[i].Store(1)
	}
	fsys := tr.fs(vfs.Default)
	if err := vfs.Default.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var err error
	switch w.backend {
	case embedded:
		err = s.setUpEmbedded(ctx, in, auto, fsys)
	default:
		err = s.setUpNetwork(ctx, in, auto, fsys, tr)
	}
	if err != nil {
		s.close()
		return nil, fmt.Errorf("set up %s: %w", w.name, err)
	}
	return s, nil
}

func (s *system) setUpEmbedded(ctx context.Context, in *inputs, auto string, fsys vfs.FS) error {
	var err error
	if s.w.preCompact {
		if s.eng, err = kv.Open(s.dir, embeddedOptions(s.w, "none", fsys)...); err != nil {
			return err
		}
		if err = load(ctx, s.eng, in.keys); err != nil {
			return err
		}
		if s.major, err = s.eng.Compact(ctx, &kv.CompactOptions{Strategy: livePolicy, K: fanIn}); err != nil {
			return err
		}
		err, s.eng = s.eng.Close(), nil
		if err != nil {
			return err
		}
	}
	if s.eng, err = kv.Open(s.dir, embeddedOptions(s.w, auto, fsys)...); err != nil {
		return err
	}
	if s.w.preCompact {
		return nil
	}
	return load(ctx, s.eng, in.keys)
}

func (s *system) setUpNetwork(ctx context.Context, in *inputs, auto string, fsys vfs.FS, tr *tracer) error {
	policy, err := lsm.PolicyByName(auto, fanIn, 1)
	if err != nil {
		return err
	}
	opts := lsm.Options{MemtableBytes: memtableBytes, BlockCacheBytes: s.w.cacheBytes, AutoCompact: policy, FS: fsys}
	nodes := 1
	if s.w.backend == clustered {
		nodes = 3
	}
	var addrs []string
	for i := 0; i < nodes; i++ {
		n := &node{dir: filepath.Join(s.dir, fmt.Sprintf("node-%d", i)), served: make(chan struct{})}
		if s.w.shards > 1 {
			st, err := store.Open(n.dir, store.Options{Shards: s.w.shards, Options: opts})
			if err != nil {
				return err
			}
			n.db, n.shardStats = st, st.ShardStats
		} else {
			db, err := lsm.Open(n.dir, opts)
			if err != nil {
				return err
			}
			n.db = db
		}
		s.nodes = append(s.nodes, n)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		n.srv = kvnet.NewServer(tr.server(n.db))
		go func() {
			defer close(n.served)
			// Serve returns net.ErrClosed once close() stops the server.
			_ = n.srv.Serve(ln)
		}()
		addrs = append(addrs, ln.Addr().String())
	}
	if s.w.backend == clustered {
		s.eng, err = kv.DialCluster(addrs, kv.WithReplication(3, 2, 2))
	} else {
		s.eng, err = kv.Dial(addrs[0])
	}
	if err != nil {
		return err
	}
	return load(ctx, s.eng, in.keys)
}

// load writes every record at version 1 in batches and flushes. Each
// batch is a fresh one: the cluster router may still be sending a batch to
// its last replica after Write has returned at quorum.
func load(ctx context.Context, eng kv.Engine, keys []uint64) error {
	var (
		key [keyLen]byte
		val [valueLen]byte
	)
	for len(keys) > 0 {
		n := min(len(keys), 256)
		var b kv.Batch
		for _, id := range keys[:n] {
			putKey(&key, id)
			putValue(&val, id, 1)
			b.Put(key[:], val[:])
		}
		if err := eng.Write(ctx, &b); err != nil {
			return err
		}
		keys = keys[n:]
	}
	return eng.Flush(ctx)
}

// counters reads the engine statistics: through the public Stats of an
// embedded engine, or summed over the server nodes (the wire protocol
// carries only part of them) plus the cluster client's repair counters.
func (s *system) counters(ctx context.Context) (counters, error) {
	st, err := s.eng.Stats(ctx)
	if err != nil {
		return counters{}, err
	}
	if len(s.nodes) == 0 {
		return countersFromKV(st), nil
	}
	var c counters
	for _, n := range s.nodes {
		if n.shardStats != nil {
			for _, ss := range n.shardStats() {
				c.unitWrites = append(c.unitWrites, ss.GroupedWrites)
			}
		}
		ns := n.db.Stats()
		if s.w.backend == clustered {
			c.unitWrites = append(c.unitWrites, ns.GroupedWrites)
		}
		c.add(countersFromLSM(ns))
	}
	if st.Cluster != nil {
		c.readRepairs, c.hintsParked = st.Cluster.ReadRepairs, st.Cluster.HintsParked
	}
	return c, nil
}

// close stops the client, then each server (waiting for its accept loop
// and handlers), then the engines. It is safe on a half-built system.
func (s *system) close() error {
	var errs []error
	if s.eng != nil {
		errs = append(errs, s.eng.Close())
	}
	for _, n := range s.nodes {
		if n.srv != nil {
			errs = append(errs, n.srv.Close())
			<-n.served
		}
		if n.db != nil {
			errs = append(errs, n.db.Close())
		}
	}
	return errors.Join(errs...)
}

// removeAll deletes dir and everything under it through the vfs seam (which
// has no RemoveAll of its own).
func removeAll(dir string) error {
	entries, err := vfs.Default.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	for _, e := range entries {
		p := filepath.Join(dir, e.Name())
		if e.IsDir() {
			err = removeAll(p)
		} else {
			err = vfs.Default.Remove(p)
		}
		if err != nil {
			return err
		}
	}
	return vfs.Default.Remove(dir)
}
