// Group-commit write path. Writers — Put, Delete and explicit WriteBatch
// commits — do not take the store lock for their I/O. Each writer enqueues
// its batch on a commit queue and parks; the first waiter becomes the
// leader, drains a prefix of the queue into one group, assigns the group a
// contiguous sequence range, appends the whole group to the WAL as a single
// atomic frame with at most one fsync, applies it to the memtable under a
// short store-lock section, rotates the memtable if the group filled it
// (the flusher goroutine does the flush and the minor compactions that
// follow — see flusher.go), and finally wakes its followers and hands
// leadership to the next waiter. The fsync cost therefore amortizes over the
// whole group, and no writer waits for an sstable or a manifest to be
// written, except that a rotation waits for the previous memtable's flush:
// the engine's one writer backpressure.
package lsm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/kverr"
	"repro/internal/wal"
)

// WriteBatch accumulates Put and Delete operations for a single atomic
// commit via DB.WriteContext: all of the batch's operations become visible
// together, occupy one contiguous sequence range, and are recovered
// all-or-nothing after a crash. A batch buffers its keys and values in one
// internal arena, so it can be reused via Reset without reallocating.
// A WriteBatch is not safe for concurrent use.
type WriteBatch struct {
	data []byte // arena: keys and values, back to back
	ops  []batchOp
}

type batchOp struct {
	del            bool
	keyOff, keyLen int
	valOff, valLen int
}

// Put records a write of key → value.
func (b *WriteBatch) Put(key, value []byte) {
	op := batchOp{keyOff: len(b.data), keyLen: len(key)}
	b.data = append(b.data, key...)
	op.valOff, op.valLen = len(b.data), len(value)
	b.data = append(b.data, value...)
	b.ops = append(b.ops, op)
}

// Delete records a tombstone for key.
func (b *WriteBatch) Delete(key []byte) {
	op := batchOp{del: true, keyOff: len(b.data), keyLen: len(key)}
	b.data = append(b.data, key...)
	b.ops = append(b.ops, op)
}

// Len returns the number of operations in the batch.
func (b *WriteBatch) Len() int { return len(b.ops) }

// Op returns operation i: its key, its value (nil for deletes) and whether
// it is a delete. The returned slices alias the batch arena and stay valid
// until Reset; callers that split batches (the sharded store routing each
// operation to its owning shard) copy through a fresh batch's Put/Delete.
func (b *WriteBatch) Op(i int) (key, value []byte, del bool) {
	op := b.ops[i]
	key = b.data[op.keyOff : op.keyOff+op.keyLen]
	if op.del {
		return key, nil, true
	}
	return key, b.data[op.valOff : op.valOff+op.valLen], false
}

// Empty reports whether the batch holds no operations.
func (b *WriteBatch) Empty() bool { return len(b.ops) == 0 }

// Reset clears the batch for reuse, retaining its arena capacity.
func (b *WriteBatch) Reset() {
	b.data = b.data[:0]
	b.ops = b.ops[:0]
}

// SizeBytes approximates the batch's WAL footprint (keys, values and
// per-operation overhead); group sizing and the MaxBatchBytes limit are
// both expressed in this measure.
func (b *WriteBatch) SizeBytes() int { return len(b.data) + 8*len(b.ops) }

// record materializes operation i as a WAL record at sequence seq. The
// returned slices alias the batch arena and stay valid until Reset.
func (b *WriteBatch) record(i int, seq uint64) wal.Record {
	op := b.ops[i]
	r := wal.Record{Op: wal.OpPut, Seq: seq, Key: b.data[op.keyOff : op.keyOff+op.keyLen]}
	if op.del {
		r.Op = wal.OpDelete
	} else {
		r.Value = b.data[op.valOff : op.valOff+op.valLen]
	}
	return r
}

// commitReq is one writer parked in the commit queue. wake receives true
// when the writer must take over as leader, false when its group committed
// (err then holds the outcome). ctx is the writer's context: a leader
// consults its own request's ctx at its cancellation points, and a parked
// writer whose ctx expires abandons the queue if its request is not yet
// claimed by a group.
//
// Requests, wake channel included, are recycled through commitReqPool. What
// makes that safe is the wake invariant: a request receives at most one
// wake, and its writer has consumed it before WriteContext returns. A
// follower returns only on its wake; a leader got its wake (or, first in an
// empty queue, never needed one) before it led; and a writer leaves the
// queue without a wake only through abandonReq, which succeeds only for a
// request that is unclaimed and not at the head — one that no leader has
// woken or can still wake. So once WriteContext returns nothing references
// the request and its channel is empty.
type commitReq struct {
	batch *WriteBatch
	ctx   context.Context
	err   error
	wake  chan bool
	// claimed marks a request collected into a leader's commit group; a
	// claimed request can no longer abandon the queue — its batch is about
	// to be (or being) written. Guarded by DB.commitMu.
	claimed bool
}

// maxGroupBytes caps how much batch data one commit group absorbs. It
// bounds group latency and keeps the group frame far below the WAL's frame
// limit; a single oversized batch still commits alone as its own group.
const maxGroupBytes = 1 << 20

// MaxBatchBytes bounds a single WriteBatch (keys + values + per-op
// overhead, as estimated by SizeBytes). The cap keeps any one batch's WAL
// frame far below wal.MaxFrameBytes — so a batch that commits alone as its
// own group always fits one atomic frame — and gives the network layer a
// boundary it can enforce before shipping a batch to a server.
// WriteContext returns ErrBatchTooLarge beyond it.
const MaxBatchBytes = 16 << 20

// writeBatchPool recycles the single-op batches behind PutContext and
// DeleteContext, and commitReqPool the commit requests of every write (see
// commitReq for why that is safe), so the write path allocates nothing of
// its own: what a write costs is its memtable version.
var (
	writeBatchPool = sync.Pool{New: func() any { return new(WriteBatch) }}
	commitReqPool  = sync.Pool{New: func() any { return &commitReq{wake: make(chan bool, 1)} }}
)

// WriteContext commits the batch atomically: every operation, or none,
// survives a crash, and scans and snapshots observe the batch as a unit
// (they read the memtable under a sequence bound taken between applies).
// Point reads are atomic per key — a Get concurrent with the apply may
// observe an earlier operation's effect before a later operation of the
// same batch has landed, though never a torn value and never effects out of
// the batch's internal order. Honors Options.SyncWAL. The batch may be
// reused (after Reset) once WriteContext returns. Concurrent writes are
// group-committed: one WAL append and at most one fsync per group, not per
// batch.
//
// Cancellation is checked at every point where the pipeline can hold a
// writer: before enqueueing, while parked in the commit queue (an unclaimed
// request is removed and its slot released, so a cancelled writer never
// blocks the pipeline), when taking over group leadership before any WAL
// I/O has started, and while the leader waits for the flusher to clear the
// frozen memtable. Once a leader has claimed the batch into a group the
// commit is past the point of no return: the write goes through and any
// later expiry is ignored — except in that wait, where ErrStalled (wrapping
// the context error) reports that the already-durable write abandoned only
// the wait, leaving the memtable's rotation to the next commit.
func (db *DB) WriteContext(ctx context.Context, b *WriteBatch) error {
	if b == nil || b.Len() == 0 {
		return nil
	}
	for _, op := range b.ops {
		if op.keyLen == 0 {
			return fmt.Errorf("lsm: empty key: %w", kverr.ErrConfig)
		}
	}
	if b.SizeBytes() > MaxBatchBytes {
		return fmt.Errorf("%w: %d bytes > %d", ErrBatchTooLarge, b.SizeBytes(), MaxBatchBytes)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	load := db.loadGauge()
	load.Add(1)
	defer load.Add(-1)
	req := commitReqPool.Get().(*commitReq)
	req.batch, req.ctx = b, ctx
	err := db.commit(req)
	*req = commitReq{wake: req.wake}
	commitReqPool.Put(req)
	return err
}

// commit runs req through the commit queue and returns its outcome, having
// consumed every wake sent to req.
func (db *DB) commit(req *commitReq) error {
	ctx := req.ctx
	db.commitMu.Lock()
	db.commitQueue = append(db.commitQueue, req)
	leader := len(db.commitQueue) == 1
	db.commitMu.Unlock()
	if !leader {
		// Park until the group containing this batch commits, or until
		// leadership arrives because the previous leader finished first.
		select {
		case lead := <-req.wake:
			if !lead {
				return req.err
			}
		case <-ctx.Done():
			if db.abandonReq(req) {
				return ctx.Err()
			}
			// Too late to abandon: a leader has already claimed this batch
			// into a group, or leadership is being handed to us. Fall back
			// to the normal wake; the commit proceeds regardless.
			if lead := <-req.wake; !lead {
				return req.err
			}
		}
	}
	db.leadGroup(req)
	return req.err
}

// abandonReq removes a parked, unclaimed request from the commit queue,
// reporting whether it succeeded. The queue head cannot abandon: it is the
// active leader or about to be woken as one, so leadGroup's own entry check
// handles its cancellation instead.
func (db *DB) abandonReq(req *commitReq) bool {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if req.claimed {
		return false
	}
	for i, r := range db.commitQueue {
		if r == req {
			if i == 0 {
				return false
			}
			db.commitQueue = append(db.commitQueue[:i], db.commitQueue[i+1:]...)
			return true
		}
	}
	return false
}

// loadGauge returns the writers-in-flight gauge the commit pipeline
// consults: the store-wide shared gauge when configured, this DB's own
// counter otherwise.
func (db *DB) loadGauge() *atomic.Int32 {
	if db.opts.WriteLoad != nil {
		return db.opts.WriteLoad
	}
	return &db.writersInFlight
}

// leadGroup runs one commit group with head (the current queue front) as
// leader, then hands leadership to the next queued writer, if any.
func (db *DB) leadGroup(head *commitReq) {
	// Last cancellation point before I/O: a leader whose context expired
	// drops its own batch and passes leadership straight on, so a cancelled
	// writer that inherited the lead releases the pipeline slot instead of
	// committing a write its caller no longer wants.
	if err := head.ctx.Err(); err != nil {
		db.commitMu.Lock()
		// Head is necessarily queue[0]: leadership only arrives that way.
		db.commitQueue = append(db.commitQueue[:0], db.commitQueue[1:]...)
		var next *commitReq
		if len(db.commitQueue) > 0 {
			next = db.commitQueue[0]
		}
		db.commitMu.Unlock()
		if next != nil {
			next.wake <- true
		}
		head.err = err
		return
	}

	// A leader with no followers — but with other writers in flight —
	// yields once before forming its group: writers that are runnable but
	// not yet enqueued get a scheduling slot to join, which matters most
	// when GOMAXPROCS is low — a leader blocked in fsync can otherwise
	// hold the only P, so no one joins groups and amortization never kicks
	// in. The in-flight check keeps a lone writer from donating its
	// timeslice to unrelated goroutines (a yield can cost a full scheduler
	// quantum when readers are CPU-bound). The gauge is shared across
	// shards when Options.WriteLoad is set, so a shard's solo leader still
	// yields while sibling shards' writers are in flight — those writers
	// finish their commits and come back around to this shard.
	if db.loadGauge().Load() > 1 {
		db.commitMu.Lock()
		solo := len(db.commitQueue) == 1
		db.commitMu.Unlock()
		if solo {
			runtime.Gosched()
		}
	}

	// Collect the group: a prefix of the queue.
	db.commitMu.Lock()
	group := db.commitQueue[:1:1]
	head.claimed = true
	size := head.batch.SizeBytes()
	for _, r := range db.commitQueue[1:] {
		if sz := r.batch.SizeBytes(); size+sz <= maxGroupBytes {
			r.claimed = true
			group = append(group, r)
			size += sz
		} else {
			break
		}
	}
	db.commitMu.Unlock()

	err := db.commitGroup(head.ctx, group)
	head.err = err
	if errors.Is(err, ErrStalled) {
		// The leader waited for the flusher on the group's behalf under its
		// own context: only it learns of the abandoned wait, as its
		// followers' writes committed normally.
		err = nil
	}
	for _, r := range group[1:] {
		r.err = err
	}

	// Pop the group and pass leadership on before releasing followers, so
	// the next group's I/O can start immediately.
	db.commitMu.Lock()
	db.commitQueue = append(db.commitQueue[:0], db.commitQueue[len(group):]...)
	var next *commitReq
	if len(db.commitQueue) > 0 {
		next = db.commitQueue[0]
	}
	db.commitMu.Unlock()
	if next != nil {
		next.wake <- true
	}
	for _, r := range group[1:] {
		r.wake <- false
	}
}

// commitGroup performs one group commit: sequence assignment under the
// store lock, WAL append + fsync (with Options.SyncWAL) under only the
// pipeline lock, memtable apply and rotation back under the store lock. On
// return the group is durable (with SyncWAL) and visible; ctx, the leader's,
// bounds only the wait for the flusher before a rotation.
func (db *DB) commitGroup(ctx context.Context, group []*commitReq) error {
	db.pipeMu.Lock()
	defer db.pipeMu.Unlock()

	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	if err := db.readOnlyErrLocked(); err != nil {
		db.mu.Unlock()
		return err
	}
	n := 0
	for _, r := range group {
		n += r.batch.Len()
	}
	seq := db.nextSeq
	db.nextSeq += uint64(n)
	log := db.log // stable while pipeMu is held: segment swaps take pipeMu
	db.mu.Unlock()

	// Encode and write the whole group as one WAL frame — one buffer, one
	// write syscall, at most one fsync — while readers and new enqueuers
	// proceed. The scratch record slice is reused across groups.
	recs := db.walRecs[:0]
	s := seq
	for _, r := range group {
		for i := 0; i < r.batch.Len(); i++ {
			recs = append(recs, r.batch.record(i, s))
			s++
		}
	}
	db.walRecs = recs[:0]
	if err := log.AppendBatch(recs); err != nil {
		// AppendBatch rolls the log back to its pre-call offset on failure.
		// If that rollback itself failed the log is sticky-poisoned
		// (log.Err() != nil): records may linger durably past the logical
		// end, so the whole DB degrades to read-only. A clean rollback
		// leaves the log valid and the write retryable — and hands the
		// group's sequence numbers back: recovery tells a lost segment tail
		// from a clean one by the numbers running on without a gap.
		db.mu.Lock()
		if werr := log.Err(); werr != nil {
			db.failDurabilityLocked(werr)
		} else {
			db.nextSeq = seq // pipeMu: nobody has taken a number since
		}
		db.mu.Unlock()
		return err
	}
	if db.opts.SyncWAL {
		if err := log.Sync(); err != nil {
			// The records were acked by the kernel but may not have reached
			// stable media, and after a failed fsync the page cache state is
			// unknowable (dirty pages may have been dropped). No future sync
			// can retroactively make this group durable, so never ack it and
			// never ack anything after it: poison durability permanently.
			db.mu.Lock()
			db.failDurabilityLocked(err)
			db.mu.Unlock()
			return err
		}
	}

	// Apply under the store lock plus applyMu's write side: scans and
	// snapshots take their sequence bound under applyMu's read side, so
	// the group lies wholly above or below it and they observe it
	// atomically, while point reads run lock-free against the skiplist
	// (per-key atomicity is enough for a single-key probe). The leader
	// also rotates a full memtable on behalf of the whole group.
	db.mu.Lock()
	defer db.mu.Unlock()
	db.applyMu.Lock()
	for _, rec := range recs {
		if rec.Op == wal.OpDelete {
			db.mem.Delete(rec.Key, rec.Seq)
		} else {
			db.mem.Put(rec.Key, rec.Value, rec.Seq)
		}
	}
	db.applyMu.Unlock()
	db.stats.GroupCommits++
	db.stats.GroupedWrites += uint64(n)
	if db.opts.SyncWAL {
		db.stats.WALSyncs++
	}
	if db.closed {
		// Close raced in after the sequence check. The group is durable in
		// the WAL and replays on reopen; skip maintenance on a closing DB.
		return nil
	}
	if db.mem.SizeBytes() >= db.opts.MemtableBytes {
		// One frozen memtable at a time: if the previous one is still being
		// flushed the group waits here, with pipeMu held, so the rotation
		// lands after exactly the same write whatever the flusher's speed.
		// A failure the flusher was holding, or the leader's ctx expiring
		// in the wait, comes back as this group's error — the group itself
		// is durable and applied — and the next commit rotates.
		if err := db.stallForFlusherLocked(ctx); err != nil {
			if err == ErrClosed {
				return nil
			}
			return err
		}
		return db.rotateLocked(true)
	}
	return nil
}
