// Package kv is the public façade of the storage engine: one
// context-aware Engine interface served by three interchangeable backends.
//
//   - Open(dir) returns an embedded engine — a single LSM partition, or a
//     hash-sharded store of independent partitions with WithShards(n).
//   - Dial(addr) returns a client engine speaking the kvnet protocol to a
//     remote server (itself started with NewServer over an Open engine).
//
// Every operation takes a context.Context and honors cancellation at the
// points where the engine can hold a caller: parked in the commit queue,
// waiting for the flusher to clear a full memtable, draining a scan, or
// waiting on the network. Errors are typed — ErrNotFound, ErrClosed,
// ErrStalled, ErrBatchTooLarge, ErrCorrupt, ErrReadOnly — and compare with
// errors.Is identically across all three backends; the network layer
// carries them as wire codes and rehydrates the same sentinels on the
// client side.
//
// The paper's fast-compaction machinery (conf_icdcs_GhoshGGK15) sits
// underneath: Compact runs a major compaction scheduled by any of the
// paper's strategies, and Stats exposes the pipeline, cache, Bloom-filter
// and compaction counters of the engine underneath.
package kv

import (
	"bytes"
	"context"
	"time"

	"repro/internal/cluster"
	"repro/internal/kverr"
	"repro/internal/lsm"
)

// Canonical error taxonomy. Every backend returns these exact values (see
// internal/kverr), so errors.Is works whether the operation failed in an
// embedded engine or was decoded off the wire.
var (
	// ErrNotFound reports a missing (or deleted) key.
	ErrNotFound = kverr.ErrNotFound

	// ErrClosed reports use of a closed engine, iterator or snapshot.
	ErrClosed = kverr.ErrClosed

	// ErrStalled marks a write whose context expired while it waited for
	// the flusher to clear the previous full memtable. The write itself is
	// already durable and visible — only the wait was abandoned — and the
	// context's error is wrapped alongside, so both
	// errors.Is(err, ErrStalled) and errors.Is(err, ctx.Err()) hold.
	ErrStalled = kverr.ErrStalled

	// ErrBatchTooLarge reports a batch exceeding MaxBatchBytes.
	ErrBatchTooLarge = kverr.ErrBatchTooLarge

	// ErrCorrupt reports data that failed an integrity check — an sstable
	// block whose checksum does not match, or a manifest referencing a
	// missing file. The engine quarantines the offending table and keeps
	// serving what remains.
	ErrCorrupt = kverr.ErrCorrupt

	// ErrConfig reports a call rejected for an invalid configuration or
	// argument before any state was touched: an Open or Dial with a bad
	// option value, an option applied to the wrong entry point or a missing
	// address; a strategy name the engine does not plan with; a write of
	// the empty key. Retrying the same call cannot succeed.
	ErrConfig = kverr.ErrConfig

	// ErrReadOnly reports a write rejected because the engine permanently
	// degraded to read-only after a durability failure (a failed WAL or
	// manifest fsync). Reads keep working; the error wraps the original
	// cause. Recovery is reopening the engine.
	ErrReadOnly = kverr.ErrReadOnly

	// ErrUnavailable reports a replicated-cluster operation that could not
	// reach its quorum: fewer than W replicas acknowledged a write, or
	// fewer than R replicas answered a read, after failover and retries.
	// A failed write may still have applied on some replicas — retrying
	// it converges via last-writer-wins versioning. Only the DialCluster
	// backend returns it.
	ErrUnavailable = kverr.ErrUnavailable
)

// MaxBatchBytes bounds a single Batch (keys + values + per-op overhead);
// Write returns ErrBatchTooLarge beyond it on every backend.
const MaxBatchBytes = lsm.MaxBatchBytes

// Engine is the storage surface shared by all backends. All methods are
// safe for concurrent use. Close invalidates the engine; operations on a
// closed engine (and Next on iterators created before the close) return
// ErrClosed.
type Engine interface {
	// Put stores key → value. The empty key is invalid: Put, Delete and a
	// Write holding it fail with ErrConfig and apply nothing, like a bad
	// strategy name.
	Put(ctx context.Context, key, value []byte) error
	// Get returns the value stored for key, or ErrNotFound. A stored
	// empty value is distinct from a missing key: it returns an empty
	// slice and a nil error.
	Get(ctx context.Context, key []byte) ([]byte, error)
	// Delete removes key. Deleting a missing key is not an error.
	Delete(ctx context.Context, key []byte) error
	// Write commits the batch atomically on the embedded single-partition
	// engine and on a remote server backed by one; on a sharded store the
	// batch is atomic per shard but has no cross-shard commit point.
	// Atomicity covers durability (all-or-nothing crash recovery) and
	// iterator/snapshot visibility; a point Get racing the commit may
	// observe an earlier operation of the batch before a later one, in
	// batch order.
	Write(ctx context.Context, b *Batch) error
	// NewIterator returns an iterator over live entries with
	// start <= key < end in ascending key order, with deleted keys
	// hidden. Nil or empty bounds are open; reversed bounds (start >=
	// end) yield an empty iterator. The caller must Close the iterator.
	NewIterator(ctx context.Context, start, end []byte) (Iterator, error)
	// Snapshot captures a point-in-time read view. Embedded backends pin
	// the live memtable and sstables by reference (cheap, isolated); the
	// remote backend has the server do the same and holds a handle, which
	// the server reaps if it goes unused for a minute; the cluster backend
	// holds one such handle per live node. The caller must Release the
	// snapshot.
	Snapshot(ctx context.Context) (Snapshot, error)
	// Flush forces buffered writes (the memtable, every shard's memtable)
	// to sstables.
	Flush(ctx context.Context) error
	// Compact runs a major compaction scheduled by opts.Strategy (nil
	// selects the engine's configured default), blocking until it
	// completes. Reads and writes proceed concurrently; the merge itself
	// is not cancellable once started.
	Compact(ctx context.Context, opts *CompactOptions) (*CompactionInfo, error)
	// Stats reports engine statistics.
	Stats(ctx context.Context) (Stats, error)
	// Close releases the engine. Close is idempotent on the remote
	// backend and returns ErrClosed on a second close of an embedded one.
	Close() error
}

// Iterator yields entries in ascending key order. It is not safe for
// concurrent use. After Close — the iterator's or the engine's — Valid
// reports false and Next records ErrClosed; a context expiry recorded
// during iteration surfaces through Err the same way.
type Iterator interface {
	// Valid reports whether the iterator is positioned at an entry.
	Valid() bool
	// Key returns the current key; valid only while Valid is true. The
	// slice must not be retained across Next.
	Key() []byte
	// Value returns the current value; same caveats as Key.
	Value() []byte
	// Next advances to the following entry.
	Next()
	// Err returns the first error the iterator hit: a context expiry,
	// ErrClosed, a transport failure on the remote backend, or
	// ErrUnavailable on the cluster backend once more than N−R nodes
	// failed. A fully drained healthy iterator returns nil.
	Err() error
	// Close releases the iterator's resources. Idempotent.
	Close() error
}

// Snapshot is a point-in-time read view. Reads after Release return
// ErrClosed. On the sharded store — embedded or behind a server — each
// shard's view is internally consistent but the per-shard views are
// acquired sequentially; on the cluster backend it is one view per live
// node, each of which holds a replica's share of a batch whole or not at
// all, and every read merges the same views — so a batch is never seen
// torn.
type Snapshot interface {
	// Get returns the value stored for key as of the snapshot, or
	// ErrNotFound.
	Get(ctx context.Context, key []byte) ([]byte, error)
	// NewIterator iterates the snapshot with the same bounds semantics as
	// Engine.NewIterator.
	NewIterator(ctx context.Context, start, end []byte) (Iterator, error)
	// Release drops the snapshot's resources. Idempotent.
	Release()
}

// Batch accumulates Put and Delete operations for one atomic Write. The
// zero value is ready to use; Reset recycles the internal arena. A Batch
// is not safe for concurrent use.
type Batch struct {
	wb lsm.WriteBatch
}

// Put records a write of key → value.
func (b *Batch) Put(key, value []byte) { b.wb.Put(key, value) }

// Delete records a deletion of key.
func (b *Batch) Delete(key []byte) { b.wb.Delete(key) }

// Len returns the number of operations in the batch.
func (b *Batch) Len() int { return b.wb.Len() }

// SizeBytes approximates the batch's commit footprint, the measure
// MaxBatchBytes bounds.
func (b *Batch) SizeBytes() int { return b.wb.SizeBytes() }

// Reset clears the batch for reuse, retaining its capacity.
func (b *Batch) Reset() { b.wb.Reset() }

// CompactOptions selects the merge schedule of one Compact call.
type CompactOptions struct {
	// Strategy names a merge-scheduling strategy that plans from table
	// statistics — "BT", "BT(I)", "SI", "SO", "RANDOM", ..., or a baseline
	// such as "size-tiered" (see compaction.NewLiveChooser); any other name
	// fails with ErrConfig. Empty selects the engine's configured default
	// (WithCompactionStrategy, itself defaulting to "BT(I)").
	Strategy string
	// K bounds the merge fan-in. Zero selects the configured default.
	K int
}

// CompactionInfo summarizes one major compaction.
type CompactionInfo struct {
	// Strategy is the merge-scheduling strategy that planned it.
	Strategy string `json:"strategy"`
	// TablesBefore is how many sstables were merged (summed across shards
	// on a sharded store).
	TablesBefore int `json:"tables_before"`
	// Merges is the number of merge steps the schedule executed.
	Merges int `json:"merges"`
	// BytesRead and BytesWritten total the merge disk I/O.
	BytesRead    uint64 `json:"bytes_read"`
	BytesWritten uint64 `json:"bytes_written"`
	// CostActual is the paper's costactual measure in keys, counted from
	// the merges that ran: entries read plus entries written, summed over
	// every merge step.
	CostActual int `json:"cost_actual"`
	// Duration is the wall-clock time of planning plus merging.
	Duration time.Duration `json:"duration_ns"`
}

// Stats is a point-in-time snapshot of engine statistics. Every backend
// fills every engine counter: the remote backend reports the served
// engine's, and the cluster backend sums its live nodes'. Per-shard
// breakdowns exist only on an embedded engine of more than one shard.
type Stats struct {
	// Backend identifies the engine flavor: "local" (an Open engine, of
	// any shard count), "remote" or "cluster".
	Backend string `json:"backend"`
	// Shards is the partition count of a local engine (0 on the remote
	// and cluster backends, which do not know it).
	Shards int `json:"shards,omitempty"`

	// The storage counters (Tables, Flushes, BytesFlushed, BytesCompacted,
	// CompactionPicks, BlockCacheHits, ...) are the engine's own, defined,
	// documented and JSON-tagged in one place. On a sharded or cluster
	// engine they are summed over the shards or live nodes.
	lsm.Stats
	// WriteStallNanos is WriteStallTime in nanoseconds, for callers that
	// read the stall time as a number (the JSON's write_stall_nanos is
	// WriteStallTime).
	WriteStallNanos int64 `json:"-"`

	// PerShard is the per-shard breakdown of a local engine of more than
	// one shard.
	PerShard []Stats `json:"per_shard,omitempty"`

	// Cluster is the replication health of a DialCluster engine (nil on
	// every other backend). The storage counters above are sums across
	// the cluster's live nodes.
	Cluster *ClusterStats `json:"cluster,omitempty"`
}

// ClusterStats describes a replicated cluster's health: membership,
// quorum configuration, and the counters behind its convergence
// machinery (hinted handoff and read repair).
type ClusterStats = cluster.Metrics

// compactionInfo summarizes what one Compact did: the result of the one
// engine it ran on, or of each cluster node, which compact concurrently,
// so wall time is the slowest node's.
func compactionInfo(strategy string, results ...*lsm.CompactionResult) *CompactionInfo {
	var sum lsm.CompactionResult
	for _, res := range results {
		sum.Add(res)
	}
	return &CompactionInfo{Strategy: strategy, TablesBefore: sum.TablesBefore, Merges: len(sum.StepStats),
		BytesRead: sum.BytesRead, BytesWritten: sum.BytesWritten, CostActual: sum.CostActual, Duration: sum.Duration}
}

// statsFromLSM wraps an engine's stats snapshot in the public shape.
func statsFromLSM(st lsm.Stats, backend string, shards int) Stats {
	return Stats{Backend: backend, Shards: shards, Stats: st, WriteStallNanos: st.WriteStallTime.Nanoseconds()}
}

// guard is the first check of an engine or snapshot operation, in one
// order: a done ctx fails first, then a closed engine or a released
// snapshot with ErrClosed.
func guard(ctx context.Context, closed bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if closed {
		return ErrClosed
	}
	return nil
}

// openRange is every backend's NewIterator: after guard, reversed bounds
// make an empty iterator; otherwise open opens the range. Bounds reach open
// canonical, nil for an empty one: nil and empty both mean "open", so every
// backend and the wire protocol agree on what an absent bound looks like.
func openRange(ctx context.Context, closed bool, start, end []byte, open func(start, end []byte) (Iterator, error)) (Iterator, error) {
	if err := guard(ctx, closed); err != nil {
		return nil, err
	}
	if len(start) == 0 {
		start = nil
	}
	if len(end) == 0 {
		end = nil
	}
	if start != nil && end != nil && bytes.Compare(start, end) >= 0 {
		return emptyIterator{}, nil
	}
	return open(start, end)
}
