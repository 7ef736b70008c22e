// Package kverr defines the canonical error taxonomy shared by every layer
// of the engine: the embedded LSM store, the sharded store, the network
// layer and the public kv façade all return (or alias) these exact values,
// so errors.Is works identically whether an operation failed locally or was
// decoded off the wire. The package is a leaf — it imports nothing from the
// engine — so any layer may depend on it without cycles.
package kverr

import "errors"

var (
	// ErrNotFound reports a missing (or deleted) key.
	ErrNotFound = errors.New("kv: key not found")

	// ErrClosed reports use of a closed engine, iterator or snapshot.
	ErrClosed = errors.New("kv: engine closed")

	// ErrStalled marks a write abandoned by its caller while waiting for
	// the flusher to clear the previous full memtable. It is always wrapped
	// together with the cause — typically a context error — so both
	// errors.Is(err, ErrStalled) and errors.Is(err, context.Canceled) hold.
	ErrStalled = errors.New("kv: write stalled behind the flusher")

	// ErrBatchTooLarge reports a write batch exceeding the engine's batch
	// size limit; such a batch cannot commit as one atomic unit.
	ErrBatchTooLarge = errors.New("kv: batch exceeds maximum batch size")

	// ErrCorrupt reports on-disk damage detected by a checksum or
	// structural validation failure — in an sstable block, a table footer,
	// or a manifest referencing files that no longer exist. The engine
	// quarantines the damaged file where it can; data covered only by the
	// damaged region is gone, and callers must treat it as such rather
	// than retry.
	ErrCorrupt = errors.New("kv: corrupt data")

	// ErrConfig reports an invalid configuration or argument rejected before
	// the engine touched any state: a bad option value, an option applied to
	// the wrong entry point, a missing address, an unknown strategy name, a
	// write of the empty key. Nothing was opened or written and nothing needs
	// cleanup; the call can simply be retried with a fixed configuration.
	ErrConfig = errors.New("kv: invalid configuration")

	// ErrUnavailable reports a cluster operation that could not reach its
	// quorum: fewer than W replicas acknowledged a write, or fewer than R
	// replicas answered a read, after failover and retries. The operation
	// may have partially applied on the replicas that did respond — a
	// retried write converges via last-writer-wins versioning — and it is
	// always wrapped together with a per-replica cause.
	ErrUnavailable = errors.New("kv: quorum unavailable")

	// ErrReadOnly reports that the engine has permanently degraded to
	// read-only after a durability failure (a failed WAL or manifest
	// fsync). Once an fsync fails the page cache can no longer be trusted,
	// so instead of acknowledging writes it might lose, the engine rejects
	// them. It is always wrapped together with the original cause. Reads
	// and snapshots continue to work; recovery requires reopening the
	// engine on a healthy disk.
	ErrReadOnly = errors.New("kv: engine is read-only after durability failure")
)
