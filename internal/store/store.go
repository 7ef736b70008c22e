// Package store partitions the LSM engine into independent shards — the
// in-process analogue of the paper's deployment model, where every server
// compacts its own local sstables. A Store routes each key to one of N
// lsm.DB shards with the same hash the network ring uses
// (keyhash.Placement), so a key's placement is computed identically whether
// the partitions live in one process or across a cluster.
//
// Each shard is a complete engine: its own directory, WAL, group-commit
// queue and flusher goroutine. Writers on different shards never contend —
// N group-commit leaders append to N WALs concurrently — which is what
// turns the single-leader commit pipeline into a parallel one.
//
// Cross-shard semantics are deliberately relaxed where a single DB is
// strict:
//
//   - WriteContext splits a batch by shard and commits the sub-batches
//     through each shard's pipeline concurrently. Each sub-batch is atomic
//     and crash-durable on its shard, but there is no cross-shard commit
//     point: a crash (or a reader racing the commit) can observe some
//     shards' sub-batches without the others.
//   - NewIterator and RangeContext merge every shard's sources into one
//     globally ordered stream. Each shard's view is a point-in-time
//     snapshot, but the snapshots are not taken at the same instant across
//     shards.
//
// A Store with a single shard behaves exactly like the DB it wraps.
package store

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/iterator"
	"repro/internal/keyhash"
	"repro/internal/kverr"
	"repro/internal/lsm"
	"repro/internal/recycle"
	"repro/internal/vfs"
)

// markerName is the file in the store root recording the shard count of a
// store whose shards live in dir/shard-NNN. The count is fixed at creation:
// reopening with a different count would split the key space differently
// and orphan existing data, so Open refuses it. A directory without one is
// a single shard rooted at the directory itself.
const markerName = "SHARDS"

// Options tunes a Store. The embedded lsm.Options apply to every shard,
// with two adjustments: the block-cache budget is split evenly across
// shards (so BlockCacheBytes stays the total), and more than one shard
// share one WriteLoad gauge unless the caller set one. MemtableBytes
// remains per shard — total buffered memory is Shards × MemtableBytes.
type Options struct {
	// Shards is the number of partitions. Zero adopts the count persisted
	// in the store directory, or 1 for a new store. Opening an existing
	// store with a different non-zero count is an error, and so is
	// Shards above 1 over a directory already holding a single shard.
	Shards int
	lsm.Options
}

// Store is a sharded LSM store exposing the lsm.DB API. All methods are
// safe for concurrent use.
type Store struct {
	dir    string
	shards []*lsm.DB
	// writes pools the scratch of a cross-shard WriteContext.
	writes recycle.Pool[*shardWrites]
}

// shardWrites is the scratch of one cross-shard WriteContext: a sub-batch
// per shard and the commit that carries it. Pooled and started through
// bound method values, a write fanned out over N shards allocates nothing
// beyond what each shard's own commit does.
type shardWrites struct {
	recycle.Mark
	subs []shardWrite
	wg   sync.WaitGroup
}

type shardWrite struct {
	batch lsm.WriteBatch
	db    *lsm.DB
	ctx   context.Context
	err   error
	wg    *sync.WaitGroup
	runFn func() // run, bound once: a go statement on it allocates nothing
}

func (w *shardWrite) run() {
	defer w.wg.Done()
	w.err = w.db.WriteContext(w.ctx, &w.batch)
}

// readMarker parses the persisted shard count, returning 0 when absent.
func readMarker(fsys vfs.FS, dir string) (int, error) {
	data, err := fsys.ReadFile(filepath.Join(dir, markerName))
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("store: read shard marker: %w", err)
	}
	n, err := strconv.Atoi(strings.TrimSpace(string(data)))
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("store: corrupt shard marker %q", strings.TrimSpace(string(data)))
	}
	return n, nil
}

// writeMarker durably persists the shard count through
// vfs.WriteFileAtomic, as the engine writes its manifest, so a crash leaves
// either no marker or a complete one, never a torn file that would refuse
// every subsequent Open.
func writeMarker(fsys vfs.FS, dir string, n int) error {
	if err := vfs.WriteFileAtomic(fsys, filepath.Join(dir, markerName), fmt.Appendf(nil, "%d\n", n)); err != nil {
		return fmt.Errorf("store: write shard marker: %w", err)
	}
	return nil
}

// holdsDB reports whether dir itself holds an lsm.DB. A manifest is only
// cut at the first flush, so a DB whose acknowledged data still lives
// entirely in its WAL must be recognized too — missing it would shard over
// the directory and silently strand those writes.
func holdsDB(fsys vfs.FS, dir string) (bool, error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return false, fmt.Errorf("store: probe for an unsharded store: %w", err)
	}
	for _, ent := range ents {
		name := ent.Name()
		// WAL files are wal.log (before segments) or wal.log.NNNNNN.
		if !ent.IsDir() && (name == "MANIFEST" || strings.HasPrefix(name, "wal.log") || strings.HasSuffix(name, ".sst")) {
			return true, nil
		}
	}
	return false, nil
}

// Open opens (creating if necessary) a store rooted at dir. A directory
// without a SHARDS marker is one shard rooted at dir itself — the layout
// lsm.Open writes — so a fresh open with Shards 0 or 1 writes no marker and
// the directory keeps opening with lsm.Open. With a marker, shard i lives
// in dir/shard-NNN. All shard WALs replay in parallel, so crash recovery
// costs one shard's replay time, not the sum.
func Open(dir string, opts Options) (*Store, error) {
	if opts.Shards < 0 {
		return nil, fmt.Errorf("store: negative shard count %d", opts.Shards)
	}
	fsys := opts.FS
	if fsys == nil {
		fsys = vfs.Default
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: mkdir: %w", err)
	}
	persisted, err := readMarker(fsys, dir)
	if err != nil {
		return nil, err
	}
	n := opts.Shards
	switch {
	case persisted == 0 && n <= 1:
		n = 1
	case persisted == 0:
		// Sharding over a DB in the root would strand its data.
		if held, err := holdsDB(fsys, dir); err != nil {
			return nil, err
		} else if held {
			return nil, fmt.Errorf("store: %s holds an unsharded lsm store; cannot shard over it (open with Shards <= 1)", dir)
		}
	case n == 0:
		n = persisted
	case n != persisted:
		return nil, fmt.Errorf("store: %s was created with %d shards, cannot open with %d", dir, persisted, n)
	}
	marked := persisted > 0 || n > 1

	// Split the block-cache budget so BlockCacheBytes bounds the store, not
	// each shard. Zero means "default total" (the lsm default, 8 MiB);
	// negative disables caching and passes through unchanged. The floor of
	// one byte only keeps the per-shard value from hitting lsm's 0-means-
	// default rule — the configured total stays the bound.
	shardOpts := opts.Options
	if shardOpts.BlockCacheBytes == 0 {
		shardOpts.BlockCacheBytes = lsm.DefaultBlockCacheBytes
	}
	if shardOpts.BlockCacheBytes > 0 {
		per := shardOpts.BlockCacheBytes / n
		if per < 1 {
			per = 1
		}
		shardOpts.BlockCacheBytes = per
	}

	// All shards share one writers-in-flight gauge so each shard's
	// group-commit leader can tell that sibling shards' writers are
	// streaming in and yield for group formation (see lsm.Options.WriteLoad).
	if shardOpts.WriteLoad == nil && n > 1 {
		shardOpts.WriteLoad = new(atomic.Int32)
	}

	s := &Store{dir: dir, shards: make([]*lsm.DB, n)}
	s.writes.New = func() *shardWrites {
		ws := &shardWrites{subs: make([]shardWrite, n)}
		for i := range ws.subs {
			w := &ws.subs[i]
			w.db, w.wg, w.runFn = s.shards[i], &ws.wg, w.run
		}
		return ws
	}
	err = s.forAllIndexed(func(i int, _ *lsm.DB) error {
		sdir := dir
		if marked {
			sdir = filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
		}
		var err error
		s.shards[i], err = lsm.Open(sdir, shardOpts)
		return err
	})
	// The marker is committed only after every shard opens, so a failed
	// first open does not pin a shard count the caller may want to retry
	// differently.
	if err == nil && persisted == 0 && marked {
		err = writeMarker(fsys, dir, n)
	}
	if err != nil {
		for _, db := range s.shards {
			if db != nil {
				db.Close()
			}
		}
		return nil, err
	}
	return s, nil
}

// ShardFor returns the index of the shard owning key; a one-shard store
// routes without hashing.
func (s *Store) ShardFor(key []byte) int {
	if len(s.shards) == 1 {
		return 0
	}
	return int(keyhash.Placement(key) % uint64(len(s.shards)))
}

// Close closes every shard; shard errors are combined.
func (s *Store) Close() error {
	return s.forAll(func(db *lsm.DB) error { return db.Close() })
}

// forAll runs fn on every shard concurrently, combining shard errors.
func (s *Store) forAll(fn func(db *lsm.DB) error) error {
	return s.forAllIndexed(func(_ int, db *lsm.DB) error { return fn(db) })
}

// PutContext stores key → value through the owning shard's commit
// pipeline.
func (s *Store) PutContext(ctx context.Context, key, value []byte) error {
	return s.shards[s.ShardFor(key)].PutContext(ctx, key, value)
}

// GetContext returns the value stored for key, or lsm.ErrNotFound.
func (s *Store) GetContext(ctx context.Context, key []byte) ([]byte, error) {
	return s.shards[s.ShardFor(key)].GetContext(ctx, key)
}

// DeleteContext removes key through the owning shard's pipeline.
func (s *Store) DeleteContext(ctx context.Context, key []byte) error {
	return s.shards[s.ShardFor(key)].DeleteContext(ctx, key)
}

// WriteContext commits the batch, splitting it by owning shard and
// committing the sub-batches through each shard's group-commit pipeline
// concurrently. Within one shard the sub-batch is atomic — all of its
// operations are recovered or none — and operations on the same key keep
// their batch order. Across shards atomicity is relaxed: there is no global
// commit point, so a crash between shard commits can persist some
// sub-batches without the others, and a concurrent reader can observe the
// same. An error means at least one sub-batch failed; others may have
// committed. Every shard's sub-commit inherits ctx, so a cancellation that
// lands while sub-batches are parked in their shards' commit queues
// releases those pipeline slots; as with errors, cancellation is not atomic
// across shards.
func (s *Store) WriteContext(ctx context.Context, b *lsm.WriteBatch) error {
	if b == nil || b.Len() == 0 {
		return nil
	}
	if len(s.shards) == 1 {
		return s.shards[0].WriteContext(ctx, b)
	}
	// Validate before splitting: a malformed or oversized batch must
	// reject whole, not after some shards already committed their
	// sub-batches.
	for i := 0; i < b.Len(); i++ {
		if key, _, _ := b.Op(i); len(key) == 0 {
			return fmt.Errorf("store: empty key: %w", kverr.ErrConfig)
		}
	}
	if b.SizeBytes() > lsm.MaxBatchBytes {
		return fmt.Errorf("%w: %d bytes > %d", lsm.ErrBatchTooLarge, b.SizeBytes(), lsm.MaxBatchBytes)
	}
	ws := s.writes.Get()
	subs := ws.subs
	for i := 0; i < b.Len(); i++ {
		key, value, del := b.Op(i)
		sub := &subs[s.ShardFor(key)].batch
		if del {
			sub.Delete(key)
		} else {
			sub.Put(key, value)
		}
	}
	// The last non-empty sub-batch commits on the caller's goroutine, so a
	// batch that lands on one shard spawns no goroutines at all.
	last := -1
	for i := range subs {
		if !subs[i].batch.Empty() {
			last = i
		}
	}
	for i := range subs {
		if w := &subs[i]; !w.batch.Empty() && i != last {
			w.ctx = ctx
			ws.wg.Add(1)
			go w.runFn()
		}
	}
	subs[last].err = s.shards[last].WriteContext(ctx, &subs[last].batch)
	ws.wg.Wait()
	var errs []error
	for i := range subs {
		if err := subs[i].err; err != nil {
			errs = append(errs, err)
		}
	}
	s.writes.Put(ws)
	return errors.Join(errs...)
}

// Reset implements recycle.Recyclable.
func (ws *shardWrites) Reset() {
	for i := range ws.subs {
		w := &ws.subs[i]
		w.batch.Reset()
		w.ctx, w.err = nil, nil
	}
}

// Flush forces every shard's memtable to an sstable.
func (s *Store) Flush() error {
	return s.forAll(func(db *lsm.DB) error { return db.Flush() })
}

// RangeContext invokes fn for every live key-value pair with
// start <= key < end (nil bounds are open) in ascending global key order;
// see lsm.RangeOver.
func (s *Store) RangeContext(ctx context.Context, start, end []byte, fn func(key, value []byte) error) error {
	return lsm.RangeOver(ctx, s, start, end, fn)
}

// NewIterator returns an iterator over the live entries of every shard
// with start <= key < end (nil bounds are open), merged into one globally
// ordered stream, plus a release function the caller must invoke exactly
// once: lsm.NewShardIterator over the shards.
func (s *Store) NewIterator(start, end []byte) (iterator.Iterator, func(), error) {
	return lsm.NewShardIterator(s.shards, start, end)
}

// Snapshot captures a point-in-time view of every shard. As with
// WriteContext and RangeContext, the per-shard snapshots are acquired sequentially: each
// shard's view is internally consistent, but a concurrent cross-shard
// batch may be split across the acquisition instants.
func (s *Store) Snapshot() (*Snapshot, error) {
	snap := &Snapshot{store: s, shards: make([]*lsm.Snapshot, len(s.shards))}
	for i, db := range s.shards {
		sn, err := db.Snapshot()
		if err != nil {
			snap.Release()
			return nil, err
		}
		snap.shards[i] = sn
	}
	return snap, nil
}

// SnapshotView is Snapshot behind the interface both engines share.
func (s *Store) SnapshotView() (lsm.SnapshotView, error) {
	snap, err := s.Snapshot()
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// Snapshot is a point-in-time read view of the whole store: one lsm
// snapshot per shard, routed and merged with the same hash partitioning
// the live store uses. Safe for concurrent use; Release is idempotent.
type Snapshot struct {
	store  *Store
	shards []*lsm.Snapshot
}

// Get returns the value stored for key as of the snapshot, or
// lsm.ErrNotFound.
func (sn *Snapshot) Get(key []byte) ([]byte, error) {
	return sn.shards[sn.store.ShardFor(key)].Get(key)
}

// NewIterator is Store.NewIterator over the snapshot.
func (sn *Snapshot) NewIterator(start, end []byte) (iterator.Iterator, func(), error) {
	return lsm.NewShardIterator(sn.shards, start, end)
}

// Release drops every shard snapshot's view pin.
func (sn *Snapshot) Release() {
	for _, shard := range sn.shards {
		if shard != nil {
			shard.Release()
		}
	}
}

// MajorCompact runs a major compaction on every shard concurrently — the
// paper's picture of many servers compacting locally, in miniature — and
// returns the aggregated result: summed table counts, costs and I/O, the
// concatenated per-merge stats, and the wall-clock duration of the slowest
// shard.
func (s *Store) MajorCompact(strategy string, k int, seed int64) (*lsm.CompactionResult, error) {
	results := make([]*lsm.CompactionResult, len(s.shards))
	err := s.forAllIndexed(func(i int, db *lsm.DB) error {
		res, err := db.MajorCompact(strategy, k, seed+int64(i))
		results[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	agg := &lsm.CompactionResult{Strategy: strategy}
	for _, res := range results {
		agg.Add(res)
	}
	return agg, nil
}

// forAllIndexed is forAll with the shard index.
func (s *Store) forAllIndexed(fn func(i int, db *lsm.DB) error) error {
	if len(s.shards) == 1 {
		return fn(0, s.shards[0])
	}
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, db := range s.shards {
		wg.Add(1)
		go func(i int, db *lsm.DB) {
			defer wg.Done()
			errs[i] = fn(i, db)
		}(i, db)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// Stats returns store statistics summed across shards with lsm.Stats.Add.
// Use ShardStats for the per-shard breakdown.
func (s *Store) Stats() lsm.Stats {
	var sum lsm.Stats
	for _, db := range s.shards {
		sum.Add(db.Stats())
	}
	return sum
}

// ShardStats returns each shard's statistics, indexed by shard.
func (s *Store) ShardStats() []lsm.Stats {
	out := make([]lsm.Stats, len(s.shards))
	for i, db := range s.shards {
		out[i] = db.Stats()
	}
	return out
}
