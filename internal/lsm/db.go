// Package lsm is a single-node, embedded log-structured merge store: the
// NoSQL write path of the paper's Figure 1 made concrete. Writes land in a
// WAL and a skiplist memtable; full memtables flush to immutable sstables;
// reads consult the memtable and then sstables newest-first through Bloom
// filters; and a major compaction merges all sstables into one, scheduled
// by any strategy from the compaction package — which is exactly the
// operation whose disk I/O the paper optimizes.
//
// Major compaction is non-blocking: the live sstable set is snapshotted in
// a short critical section, the merge schedule executes off-lock on a
// worker pool, and the result is swapped into the manifest atomically while
// reads and writes proceed against the snapshot (see MajorCompact). Table
// lifetime is reference-counted so snapshots keep obsolete sstables alive
// until the last reader drains.
package lsm

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/hll"
	"repro/internal/iterator"
	"repro/internal/kverr"
	"repro/internal/memtable"
	"repro/internal/skiplist"
	"repro/internal/sstable"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// The error sentinels alias the canonical taxonomy in internal/kverr, so a
// caller holding the public kv package's sentinels can errors.Is against
// errors produced here without translation.
var (
	// ErrNotFound reports a missing (or deleted) key.
	ErrNotFound = kverr.ErrNotFound

	// ErrClosed reports use of a closed DB.
	ErrClosed = kverr.ErrClosed

	// ErrStalled marks a write that was aborted by its context while
	// waiting for the flusher to clear the frozen memtable. The group is
	// already durable and visible when this is returned — only the wait was
	// abandoned — and the context's own error is wrapped alongside it.
	ErrStalled = kverr.ErrStalled

	// ErrBatchTooLarge reports a WriteBatch larger than MaxBatchBytes.
	ErrBatchTooLarge = kverr.ErrBatchTooLarge

	// ErrCorrupt reports on-disk damage: a checksum-failing sstable block,
	// a table of an older format, or a manifest that references files that
	// no longer exist or holds lines this build does not know. A corrupt
	// sstable detected at read time is quarantined (renamed aside and
	// dropped from the live set) so the store keeps serving its healthy
	// tables.
	ErrCorrupt = kverr.ErrCorrupt

	// ErrReadOnly reports a write rejected because the DB permanently
	// degraded to read-only after a durability failure — a failed WAL or
	// manifest fsync. The original cause is wrapped alongside it. Reads,
	// scans and snapshots continue to work.
	ErrReadOnly = kverr.ErrReadOnly
)

// Options tunes a DB. The zero value is usable.
type Options struct {
	// MemtableBytes is the flush threshold for the memtable (keys +
	// values). Zero selects 4 MiB. A full memtable is flushed in the
	// background while writes fill the next, so memtable memory peaks at
	// twice this.
	MemtableBytes int
	// SyncWAL forces an fsync after every write; slow but durable.
	SyncWAL bool
	// Seed makes skiplist behaviour deterministic.
	Seed int64
	// AutoCompact, when non-nil, runs minor compactions with this policy
	// (see PolicyByName) after every memtable flush triggered by a write,
	// keeping the table count bounded between major compactions.
	AutoCompact *Policy
	// CompactionWorkers bounds the merge worker pool used by major
	// compactions. Zero selects GOMAXPROCS.
	CompactionWorkers int
	// BlockCacheBytes bounds the shared sstable block cache. Zero selects
	// 8 MiB; negative disables caching.
	BlockCacheBytes int
	// FS is the filesystem every durability-critical operation goes
	// through: WAL and sstable creation, manifest rewrites, table reads,
	// orphan cleanup. Nil selects the real OS filesystem (vfs.Default);
	// tests substitute a vfs.Fault to inject disk failures.
	FS vfs.FS
	// WriteLoad, when non-nil, is a shared gauge of writers in flight
	// across a family of related DBs — the shards of a store.Store. A
	// group-commit leader consults the gauge (in place of this DB's own
	// in-flight count) when deciding whether yielding could grow its
	// group: with many shards a single shard's own count is usually 1
	// even while sibling shards' writers stream in, so without the shared
	// gauge per-shard groups never form and the fsync amortization of
	// group commit is lost to the partitioning.
	WriteLoad *atomic.Int32
}

// DefaultBlockCacheBytes is the block-cache budget selected when
// Options.BlockCacheBytes is zero. The sharded store splits the same
// default across its shards, so the two layers stay in step.
const DefaultBlockCacheBytes = 8 << 20

func (o Options) withDefaults() Options {
	if o.MemtableBytes <= 0 {
		o.MemtableBytes = 4 << 20
	}
	if o.BlockCacheBytes == 0 {
		o.BlockCacheBytes = DefaultBlockCacheBytes
	}
	if o.FS == nil {
		o.FS = vfs.Default
	}
	return o
}

// tableHandle pairs an open sstable reader with its file name and a
// reference count governing its lifetime. The live table set holds one
// reference; read views, snapshots (scans, ranges, compactions) take
// another for their duration. When a compaction supersedes a table it is
// marked obsolete and the live reference dropped: the reader is closed and
// the file deleted only once the last view or snapshot drains.
type tableHandle struct {
	name string
	rd   *sstable.Reader
	dir  string
	// fs removes the table's file on last release; cleanupFails points at
	// the owning DB's counter of removals that failed (the release can
	// outlive the DB's locks, so the counter is shared by pointer).
	fs           vfs.FS
	cleanupFails *atomic.Uint64
	refs         atomic.Int32
	// smallest/largest bound the table's key range and maxSeq its
	// sequence range (all immutable after open): the read path prunes
	// point probes to tables whose range covers the key and stops probing
	// once no remaining table's maxSeq can beat the version already found.
	// hasBounds is false only for empty tables, which contain nothing.
	smallest, largest []byte
	minSeq, maxSeq    uint64
	hasBounds         bool
	// sketch is the table's HyperLogLog key sketch, read from its bounds
	// block at open. Immutable — consumers Clone before merging.
	sketch *hll.Sketch
	// level is the table's position in a leveled layout (0 for fresh
	// flushes and flat layouts), persisted through the manifest. Guarded
	// by DB.mu.
	level int
	// obsolete marks a table that has been replaced by a compaction; its
	// file is deleted when the reference count reaches zero.
	obsolete atomic.Bool
	// quarantined marks a table whose file was renamed aside after a
	// corruption was detected reading it: the last release closes the
	// reader but must not try to remove the (already renamed) file.
	quarantined atomic.Bool
	// compacting marks a table that a merge running off-lock — a minor
	// compaction's inputs, a major compaction's snapshot — is reading and
	// will retire at its swap: no other pick may select it and a corruption
	// found in it is left to that merge. Guarded by DB.mu.
	compacting bool
}

func (db *DB) newTableHandle(name string, rd *sstable.Reader) *tableHandle {
	th := &tableHandle{
		name: name, rd: rd, dir: db.dir,
		fs: db.fs, cleanupFails: &db.cleanupFails,
	}
	if b, ok := rd.Bounds(); ok {
		th.smallest, th.largest = b.Smallest, b.Largest
		th.minSeq, th.maxSeq = b.MinSeq, b.MaxSeq
		th.hasBounds = true
	}
	th.sketch = rd.Sketch()
	rd.SetFilterMetrics(&db.filterMetrics)
	th.refs.Store(1)
	return th
}

func (th *tableHandle) retain() { th.refs.Add(1) }

// release drops one reference; the last release closes the reader and, if
// the table was superseded, removes its file. A removal failure is counted
// (Stats.CleanupFailures) rather than dropped: the file is an orphan the
// next Open will retry, but operators watching the counter can see disk
// space leaking.
func (th *tableHandle) release() {
	if th.refs.Add(-1) != 0 {
		return
	}
	th.rd.Close()
	if th.obsolete.Load() && !th.quarantined.Load() {
		if err := th.fs.Remove(filepath.Join(th.dir, th.name)); err != nil {
			th.cleanupFails.Add(1)
		}
	}
}

func releaseTables(tables []*tableHandle) {
	for _, th := range tables {
		th.release()
	}
}

// DB is the store. All methods are safe for concurrent use.
type DB struct {
	dir  string
	opts Options
	// fs is opts.FS after defaulting: the filesystem all durability paths
	// go through.
	fs vfs.FS

	// cleanupFails counts file removals that failed — orphan cleanup at
	// Open, obsolete tables at last release, aborted flush/compaction
	// outputs. Failures leave recoverable garbage (the next Open retries),
	// so they are counted, not fatal.
	cleanupFails atomic.Uint64
	// ro is set once the DB degrades to read-only (see failDurabilityLocked);
	// it mirrors roCause for lock-free checks.
	ro atomic.Bool

	blockCache *cache.Sharded // nil when disabled
	// filterMetrics accumulates Bloom-filter outcomes across all table
	// readers, surviving table turnover under compaction.
	filterMetrics sstable.FilterMetrics

	// majorMu serializes major compactions; the store lock mu is only held
	// for their short snapshot/swap sections.
	majorMu sync.Mutex
	// state is the major-compaction state machine, readable without mu.
	state atomic.Int32

	// pipeMu is the commit-pipeline lock: it serializes WAL I/O (group
	// appends, fsyncs, segment swaps) with memtable rotation, so a group
	// commit's WAL-append → memtable-apply window can run without holding
	// mu while rotations still observe a quiesced pipeline. Lock order:
	// pipeMu before mu; never acquire pipeMu while holding mu.
	pipeMu sync.Mutex
	// commitMu guards the commit queue of parked writers; the queue head is
	// the current group leader (see batch.go).
	commitMu    sync.Mutex
	commitQueue []*commitReq
	// walRecs is the leader's scratch slice for group encoding, guarded by
	// pipeMu.
	walRecs []wal.Record
	// writersInFlight counts WriteContext calls currently between entry and
	// return; a solo leader yields for group formation only when other
	// writers are actually in flight (see leadGroup).
	writersInFlight atomic.Int32

	// view is the atomically published read view (see view.go): point
	// reads, scans and snapshots pin it instead of taking mu, so a flush
	// or compaction holding mu never stalls them. Every table-set change
	// installs a fresh view under mu; Close retires it to nil.
	view atomic.Pointer[readView]
	// applyMu orders memtable mutation against readers fixing their
	// point in time: the commit pipeline applies a group's records under
	// the write lock; a scan or snapshot registers on the memtable and
	// takes its sequence bound under the read lock — O(1), an atomic add
	// and a load — and then reads with no lock at all. Both sections are
	// pure in-memory work — never held across a syscall — so this lock
	// cannot reintroduce the I/O stalls mu used to cause.
	// Lock order: pipeMu before mu before applyMu; applyMu's read side is
	// taken with no other lock held.
	applyMu sync.RWMutex

	mu     sync.RWMutex
	mem    *memtable.Table
	log    *wal.Writer // the active WAL segment, number logNum
	logNum uint64
	man    *manifest
	tables []*tableHandle // newest first
	closed bool
	// nextSeq is the next sequence number a commit is given. The manifest
	// records only one past what the tables hold (see flushImmLocked).
	nextSeq uint64
	// imm is the frozen memtable the flusher is writing out (see
	// flusher.go), nil when there is none; immLogNum is the WAL segment that
	// holds its records and immPicks whether AutoCompact picks follow its
	// flush. rotations counts memtables frozen since Open. flushCond is
	// signalled whenever a rotation, a finished flush or merge, a flusher
	// failure or Close may let a waiter on the flusher (or the flusher)
	// proceed; flushing says the flusher is flushing or picking, merging
	// counts minor merges in flight, and flushErr holds the flusher's last
	// failure until a waiter takes it.
	imm       *memtable.Table
	immLogNum uint64
	immPicks  bool
	rotations uint64
	flushCond *sync.Cond
	flushing  bool
	merging   int
	flushErr  error
	flusherWG sync.WaitGroup
	// slabs holds the last memtable nothing reads any more, for the next to
	// carve from. The DB holds a reference on mem and imm until imm's flush.
	slabs skiplist.FreeList
	// flushHook, when set (tests only, under mu before the first write), is
	// called by the flusher at each flushPoint, with no lock held.
	flushHook func(flushPoint)
	// stats holds the counters Stats reports that the DB keeps itself:
	// maintenance work, the commit pipeline, WAL recovery at Open,
	// quarantines and the table-set generation, which each tableHandle
	// also records. Stats fills in the rest. Guarded by mu.
	stats Stats
	// roCause is the durability failure that degraded the DB to read-only
	// (nil while writable). Guarded by mu.
	roCause error

	// hookBeforeSwap, when set (tests only), runs after every merge of a
	// major compaction completes but before the manifest swap.
	// Returning an error aborts the compaction as a simulated crash:
	// merge outputs are left on disk and the manifest is not touched.
	hookBeforeSwap func() error
}

// Open opens (creating if necessary) a store in dir, replaying the WAL
// segments left by a previous crash into the memtable and deleting any
// sstable files a crashed flush or compaction left outside the manifest.
func Open(dir string, opts Options) (*DB, error) {
	opts = opts.withDefaults()
	fsys := opts.FS
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("lsm: mkdir: %w", err)
	}
	man, err := loadManifest(fsys, dir)
	if err != nil {
		return nil, err
	}
	orphanFails, err := removeOrphans(fsys, dir, man)
	if err != nil {
		return nil, err
	}
	db := &DB{dir: dir, opts: opts, fs: fsys, man: man}
	db.mem = memtable.NewFrom(&db.slabs, opts.Seed)
	db.cleanupFails.Add(orphanFails)
	db.flushCond = sync.NewCond(&db.mu)
	if opts.BlockCacheBytes > 0 {
		db.blockCache = cache.NewSharded(opts.BlockCacheBytes, 0)
	}
	for _, name := range man.tables {
		rd, err := sstable.OpenFS(fsys, filepath.Join(dir, name), nil)
		if err != nil {
			releaseTables(db.tables)
			if errors.Is(err, fs.ErrNotExist) {
				// The manifest promises a table the directory does not
				// hold: the store is damaged, and the caller must learn it
				// through the canonical taxonomy, not a bare *PathError.
				return nil, fmt.Errorf("lsm: open table %s: %w (%w)", name, ErrCorrupt, err)
			}
			return nil, fmt.Errorf("lsm: open table %s: %w", name, err)
		}
		rd.SetBlockCache(db.blocks())
		th := db.newTableHandle(name, rd)
		th.level = man.levels[name]
		db.tables = append(db.tables, th)
	}
	if err := db.recoverWAL(); err != nil {
		releaseTables(db.tables)
		return nil, err
	}
	// Publish the initial read view. No readers exist yet, so holding mu
	// is not required; installViewLocked's contract is satisfied trivially.
	db.installViewLocked()
	db.flusherWG.Add(1)
	go db.flusher()
	return db, nil
}

// removeOrphans deletes sstable files in dir that the manifest does not
// reference — the output of a flush or merge that crashed between writing
// its file and committing it — plus any stale manifest or WAL temp file.
// (WAL segments are not orphans until recoverWAL has replayed them; it
// removes them itself.) Recovery is thereby idempotent: reopening after a
// crash converges to exactly the manifest's view of the store. A removal
// that fails is counted and skipped rather than failing Open: an
// undeletable orphan is only leaked space, and the next Open retries it;
// quarantined files (.sst.corrupt) are never touched.
func removeOrphans(fsys vfs.FS, dir string, man *manifest) (failed uint64, err error) {
	live := make(map[string]bool, len(man.tables))
	for _, name := range man.tables {
		live[name] = true
	}
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return 0, fmt.Errorf("lsm: scan for orphans: %w", err)
	}
	for _, ent := range entries {
		name := ent.Name()
		orphanSST := strings.HasSuffix(name, ".sst") && !live[name]
		if orphanSST || name == manifestName+".tmp" || name == walTmpName {
			if err := fsys.Remove(filepath.Join(dir, name)); err != nil {
				failed++
			}
		}
	}
	return failed, nil
}

// blocks is the block cache table readers and writers share: the
// configured one, or cache.Uncached when it is disabled.
func (db *DB) blocks() sstable.Cache {
	if db.blockCache == nil {
		return cache.Uncached
	}
	return db.blockCache
}

// buildTable creates the sstable file name, has fill write and finish it
// through a Writer sized for expected entries, makes it durable and returns
// the Reader the Writer hands over: born open and resident, it reads from
// the handle the table was written through and finds every block the Writer
// published (see sstable.Writer.PublishTo and Reader), so nothing is read
// back. The one check a re-open made, that the Reader decodes what the
// Writer encodes, is sstable's FuzzBornReaderMatchesReopened; Open still
// re-opens and CRC-checks every table.
//
// The Writer writes through a 32 KiB buffer, the size of the span a merge
// reads its inputs in, on the goroutine that called: a write error surfaces
// from fill, or from the buffer's flush before the fsync.
//
// Every failure aborts cleanly: the partial file is closed before removal
// (removing an open file works on POSIX but masks close diagnostics), the
// first error is the one returned, a failed removal is counted rather than
// allowed to shadow it, and the blocks published so far are dropped. Once
// the Reader exists its Close drops them and closes the file, so a caller
// that abandons the table later (a failed manifest save) closes the Reader
// and removes the file.
func (db *DB) buildTable(name string, expected int, fill func(*sstable.Writer) error) (*sstable.Reader, error) {
	f, err := db.fs.Create(filepath.Join(db.dir, name))
	if err != nil {
		return nil, fmt.Errorf("lsm: create sstable: %w", err)
	}
	bw := bufio.NewWriterSize(f, 32<<10)
	w := sstable.NewWriter(bw, expected)
	w.PublishTo(db.blocks())
	err = fill(w)
	if err == nil {
		if err = bw.Flush(); err != nil {
			err = fmt.Errorf("lsm: write sstable: %w", err)
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if err != nil {
		f.Close()
		db.removeFile(name)
		w.Abandon()
		return nil, err
	}
	return w.Reader(f), nil
}

// mergeTables is buildTable for the merge of inputs, dropping what drop
// reports (see sstable.MergeTo).
func (db *DB) mergeTables(name string, drop func(iterator.Entry) bool, inputs []*sstable.Reader) (*sstable.Reader, sstable.MergeStats, error) {
	var stats sstable.MergeStats
	rd, err := db.buildTable(name, sstable.MergeEntries(inputs...), func(w *sstable.Writer) (err error) {
		stats, err = sstable.MergeTo(w, drop, inputs...)
		return err
	})
	return rd, stats, err
}

// Close stops the flusher, flushes nothing (the WAL preserves the
// memtables) and releases all file handles. A flush the flusher has
// begun is finished, one it has not is left to the next Open's replay, and
// a failure it was holding for the next waiter is returned here; an
// in-flight merge aborts at its next phase boundary; snapshots still reading
// keep their tables open until they drain. The DB is unusable afterwards.
func (db *DB) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return ErrClosed
	}
	db.closed = true
	db.flushCond.Broadcast()
	db.mu.Unlock()
	db.flusherWG.Wait()

	// Quiesce the commit pipeline before closing the log: an in-flight
	// group leader holds pipeMu across its WAL I/O, and its records must
	// reach the (still open) log even though closed is already set.
	db.pipeMu.Lock()
	defer db.pipeMu.Unlock()
	db.mu.Lock()
	defer db.mu.Unlock()
	err := db.flushErr
	if cerr := db.log.Close(); err == nil {
		err = cerr
	}
	// Retire the read view first: new pins fail with ErrClosed, readers
	// already pinned keep their tables alive until they drain.
	db.dropViewLocked()
	releaseTables(db.tables)
	db.tables = nil
	return err
}

// PutContext stores key → value. Concurrent Puts are group-committed:
// writers enqueue on the commit pipeline and a single leader performs one
// WAL append (and at most one fsync) for the whole group — see batch.go,
// and WriteContext for the cancellation points on the pipeline.
func (db *DB) PutContext(ctx context.Context, key, value []byte) error {
	b := writeBatchPool.Get().(*WriteBatch)
	b.Reset()
	b.Put(key, value)
	err := db.WriteContext(ctx, b)
	writeBatchPool.Put(b)
	return err
}

// DeleteContext removes key by writing a tombstone; the key physically
// disappears at the next major compaction. Like Puts, deletes ride the
// group-commit pipeline.
func (db *DB) DeleteContext(ctx context.Context, key []byte) error {
	b := writeBatchPool.Get().(*WriteBatch)
	b.Reset()
	b.Delete(key)
	err := db.WriteContext(ctx, b)
	writeBatchPool.Put(b)
	return err
}

// recordPickLocked counts a completed compaction against the policy or
// strategy that picked it. Callers hold mu.
func (db *DB) recordPickLocked(name string) {
	if db.stats.CompactionPicks == nil {
		db.stats.CompactionPicks = make(map[string]uint64)
	}
	db.stats.CompactionPicks[name]++
}

// failDurabilityLocked permanently degrades the DB to read-only, recording
// cause. Called (under mu) when a WAL or manifest fsync fails — after a
// failed fsync the kernel may have dropped the dirty pages, so nothing
// later written could be trusted as durable, and acknowledging writes
// would risk silently losing them. Reads keep working; every subsequent
// write fails with ErrReadOnly wrapping the cause. Writers waiting on the
// flusher are released so they fail fast instead of hanging.
func (db *DB) failDurabilityLocked(cause error) {
	if db.roCause != nil {
		return
	}
	db.roCause = cause
	db.ro.Store(true)
	db.flushCond.Broadcast()
}

// readOnlyErrLocked returns the composed read-only error, or nil while the
// DB is writable. Callers hold mu.
func (db *DB) readOnlyErrLocked() error {
	if db.roCause == nil {
		return nil
	}
	return fmt.Errorf("%w (cause: %w)", ErrReadOnly, db.roCause)
}

// ReadOnly reports whether the DB has degraded to read-only after a
// durability failure, and the cause if so.
func (db *DB) ReadOnly() (bool, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.roCause != nil, db.roCause
}

// setTablesLocked commits next as the live table set, newest first. Every
// change to the set after Open — a flush, a merge's install, a quarantine —
// goes through it: it saves the manifest naming next, and only then makes
// next live, bumps Stats.Generation and publishes the read view. A failed
// save changes nothing in
// memory and degrades the DB to read-only: the manifest on disk may name
// either set, so no later write could be promised durable. Callers hold mu.
func (db *DB) setTablesLocked(next []*tableHandle) error {
	if err := db.man.save(db.fs, db.dir, next); err != nil {
		db.failDurabilityLocked(err)
		return err
	}
	db.tables = next
	db.stats.Generation++
	db.installViewLocked()
	return nil
}

// quarantineTable handles a corruption detected while reading th: the
// table leaves the live set and the manifest, and its file is renamed
// aside (name.corrupt) for forensics — never silently deleted, never
// probed again. The read that found the damage still fails with
// ErrCorrupt; quarantining just stops the damage from wedging every later
// read that lands on the same table. Tables captured in a live compaction
// snapshot are skipped (the compaction owns their lifecycle and will fail
// on its own read of the damage). If the manifest rewrite fails the table
// stays live under its name, as the manifest on disk may still name it,
// and the DB is read-only.
func (db *DB) quarantineTable(th *tableHandle, cause error) {
	db.mu.Lock()
	if db.closed || th.compacting || th.quarantined.Load() {
		db.mu.Unlock()
		return
	}
	idx := slices.Index(db.tables, th)
	if idx < 0 {
		// Already superseded by a compaction; the obsolete path owns it.
		db.mu.Unlock()
		return
	}
	err := db.setTablesLocked(append(db.tables[:idx:idx], db.tables[idx+1:]...))
	if err == nil {
		th.quarantined.Store(true)
		db.stats.QuarantinedTables++
	}
	db.mu.Unlock()
	if err != nil {
		return
	}
	path := filepath.Join(db.dir, th.name)
	if err := db.fs.Rename(path, path+".corrupt"); err != nil {
		db.cleanupFails.Add(1)
	}
	th.release() // the live set's reference
}

// GetContext returns the value stored for key, or ErrNotFound. The read is
// coordination-free: it pins the atomically published read view (see
// view.go) and never touches db.mu, so flushes and compactions holding
// the store lock cannot stall it. The memtable always holds the newest
// version of a key if it holds one at all; among sstables the probe runs
// in descending max-sequence order with key-range pruning and stops as
// soon as no remaining table can hold a newer version. Bloom filters keep
// the per-table probes cheap. Expiry of ctx is re-checked between
// per-table probes, so a cold multi-table lookup observes cancellation
// after at most one table's disk read rather than only at entry.
func (db *DB) GetContext(ctx context.Context, key []byte) ([]byte, error) {
	if ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	v, err := db.pinView()
	if err != nil {
		return nil, err
	}
	defer v.unpin()
	val, bad, err := v.get(ctx, key)
	if err != nil && bad != nil && errors.Is(err, ErrCorrupt) {
		// A checksum mismatch in one table must not wedge the engine:
		// quarantine the damaged file (rename aside, drop from the view)
		// so later reads serve from the healthy tables. This read still
		// reports the corruption.
		db.quarantineTable(bad, err)
	}
	return val, err
}

// Flush forces the memtable to an sstable even if it is below threshold:
// it waits for the flusher to finish what it has in hand (a flush and the
// picks after it), hands it the memtable and waits for that flush. No
// AutoCompact pick follows an explicit flush.
func (db *DB) Flush() error {
	if err := db.lockQuiesced(); err != nil {
		return err
	}
	defer db.pipeMu.Unlock()
	defer db.mu.Unlock()
	return db.flushMemLocked()
}

// acquireSnapshot captures a consistent read state without touching
// db.mu: it pins the published view, registers on the view's memtable and
// takes its sequence bound under applyMu's read side (so a concurrent
// group commit lies wholly above or wholly below the bound), and retains
// the view's memtables and its tables narrowed to [start, end), appending
// the tables to tables. The caller must release the state.
func (db *DB) acquireSnapshot(tables []*tableHandle, start, end []byte) (readState, error) {
	v, err := db.pinView()
	if err != nil {
		return readState{}, err
	}
	defer v.unpin()
	db.applyMu.RLock()
	bound := v.mem.Pin()
	db.applyMu.RUnlock()
	v.mem.Retain()
	v.imm.Retain()
	return readState{mem: v.mem, bound: bound, imm: v.imm, tables: retainOverlapping(tables, v.tables, start, end)}, nil
}

// rangeCtxCheckEvery is how many merged entries a context-aware scan loop
// emits between context-expiry checks: often enough that cancellation lands
// within microseconds, rarely enough that the check costs nothing.
const rangeCtxCheckEvery = 256

// RangeContext invokes fn for every live key-value pair with
// start <= key < end in ascending key order (nil bounds are open); see
// RangeOver.
func (db *DB) RangeContext(ctx context.Context, start, end []byte, fn func(key, value []byte) error) error {
	return RangeOver(ctx, db, start, end, fn)
}

// RangeOver drives the iterator r opens over [start, end) through fn, which
// must not retain its arguments, checking ctx every rangeCtxCheckEvery
// entries, and releases it. It returns the iterator's deferred error
// (IterErr): a corrupt block mid-scan is ErrCorrupt, not a short result.
func RangeOver(ctx context.Context, r interface {
	NewIterator(start, end []byte) (iterator.Iterator, func(), error)
}, start, end []byte, fn func(key, value []byte) error) error {
	it, release, err := r.NewIterator(start, end)
	if err != nil {
		return err
	}
	defer release()
	for n := 0; it.Valid(); it.Next() {
		if n%rangeCtxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		n++
		e := it.Entry()
		if err := fn(e.Key, e.Value); err != nil {
			return err
		}
	}
	return IterErr(it)
}

// IterErr returns the deferred error of an iterator that carries one (the
// iterator.Iterator interface has no Err method; sources that can fail
// mid-stream — sstable block reads — record the error and end early).
func IterErr(it iterator.Iterator) error {
	if ec, ok := it.(interface{ Err() error }); ok {
		return ec.Err()
	}
	return nil
}

// NewIterator returns an iterator over the live entries with
// start <= key < end (nil bounds are open), merged across the memtables and
// the overlapping sstables with deleted keys hidden, plus a release function
// the caller must invoke exactly once; every entry dies there. Set-up is
// O(log memtable + tables) time and, once a scan has run, no allocation.
// Iteration proceeds off-lock against reference-counted tables; a table
// that fails mid-scan ends it early, with IterErr reporting why.
func (db *DB) NewIterator(start, end []byte) (iterator.Iterator, func(), error) {
	return NewShardIterator([]*DB{db}, start, end)
}
