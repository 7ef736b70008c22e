// Lock-free read path. The DB publishes its (memtable, frozen memtable,
// sstables) triple as an immutable, reference-counted readView through an
// atomic pointer: every change to it — a memtable rotation, the flush that
// turns the frozen memtable into a table, a minor compaction, a
// major-compaction swap, close — builds a fresh view and installs it
// copy-on-write, so readers pin the current view with one CAS and never
// touch db.mu. A manifest save holding the store lock therefore never
// stalls a Get; the worst a reader pays is retrying the pin when a swap
// drains the view it loaded.
//
// On top of the view, point lookups prune with per-table key bounds (only
// tables whose [smallest, largest] range covers the key are probed) and
// terminate early by sequence order: tables are probed in descending
// max-sequence order, and once a version with sequence s is found, no
// table whose maxSeq <= s can hold a newer one, so the probe stops. The
// ordering makes the early exit sound even for tables produced by minor
// compactions of non-adjacent inputs, whose position in the table set
// carries no recency information.
package lsm

import (
	"bytes"
	"context"
	"sort"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/iterator"
	"repro/internal/keyhash"
	"repro/internal/memtable"
	"repro/internal/sstable"
)

// readView is one immutable read snapshot: the memtable writers are
// currently applying into (safe for lock-free point reads concurrently
// with the single applier; see internal/skiplist), the frozen memtable
// awaiting its flush if there is one (every version in it is older than any
// in mem and newer than any in the tables), and the then-live sstables,
// each retained once by the view, as are the memtables. The publisher holds
// one reference; readers pin and unpin around their probes. Dropping the
// last reference releases the tables, which closes — and for superseded
// tables deletes — any whose live reference is already gone, and the
// memtables, which recycles a flushed one nothing else holds.
type readView struct {
	mem *memtable.Table
	imm *memtable.Table // nil when no flush is pending
	// tables is the live set in table-set order (newest first), the order
	// scans and snapshots capture.
	tables []*tableHandle
	// byseq is the same set sorted by descending maxSeq: the probe order
	// that makes first-newest early exit sound.
	byseq []*tableHandle
	refs  atomic.Int64
}

// pin takes a reference, failing when the view is already drained (its
// publisher reference was dropped and every reader left) — the caller must
// reload the current view and retry.
func (v *readView) pin() bool {
	for {
		r := v.refs.Load()
		if r <= 0 {
			return false
		}
		if v.refs.CompareAndSwap(r, r+1) {
			return true
		}
	}
}

// unpin drops a reference; the last one out releases the view's tables and
// memtables.
func (v *readView) unpin() {
	if v.refs.Add(-1) == 0 {
		releaseTables(v.tables)
		v.mem.Release()
		v.imm.Release()
	}
}

// sortByMaxSeq returns tables ordered by descending maxSeq (stable, so
// equal-seq tables keep their set order). The probe loop relies on this
// order for its early exit.
func sortByMaxSeq(tables []*tableHandle) []*tableHandle {
	byseq := make([]*tableHandle, len(tables))
	copy(byseq, tables)
	sort.SliceStable(byseq, func(i, j int) bool { return byseq[i].maxSeq > byseq[j].maxSeq })
	return byseq
}

// installViewLocked publishes the DB's current (mem, imm, tables) as the read
// view, retaining every table and memtable on the new view's behalf and
// dropping the previous view's publisher reference. Callers hold db.mu; the
// swap itself is what readers observe, atomically.
func (db *DB) installViewLocked() {
	tables := make([]*tableHandle, len(db.tables))
	copy(tables, db.tables)
	for _, th := range tables {
		th.retain()
	}
	db.mem.Retain()
	db.imm.Retain()
	v := &readView{mem: db.mem, imm: db.imm, tables: tables, byseq: sortByMaxSeq(tables)}
	v.refs.Store(1)
	if old := db.view.Swap(v); old != nil {
		old.unpin()
	}
}

// dropViewLocked retires the published view at Close: readers already
// pinned drain normally; new pins observe nil and fail with ErrClosed.
func (db *DB) dropViewLocked() {
	if old := db.view.Swap(nil); old != nil {
		old.unpin()
	}
}

// pinView pins the current read view. It returns ErrClosed once Close has
// retired the view. The retry loop covers the benign race where a
// table-set swap drops the loaded view's last reference between the load
// and the pin.
func (db *DB) pinView() (*readView, error) {
	for {
		v := db.view.Load()
		if v == nil {
			return nil, ErrClosed
		}
		if v.pin() {
			return v, nil
		}
	}
}

// get serves a point read against the pinned view: memtable first (the
// newest version of a key lives there if anywhere), then the frozen one,
// then the sstables in descending max-sequence order with key-range pruning
// and early exit.
func (v *readView) get(ctx context.Context, key []byte) ([]byte, *tableHandle, error) {
	e, ok := v.mem.Get(key)
	if !ok && v.imm != nil {
		e, ok = v.imm.Get(key)
	}
	if ok {
		if e.Tombstone {
			return nil, nil, ErrNotFound
		}
		// The memtable buffer is shared with future flushes: copy.
		return append([]byte(nil), e.Value...), nil, nil
	}
	return probeTables(ctx, v.byseq, key)
}

// probeTables resolves the newest version of key across tables, which
// must be sorted by descending maxSeq. Tables whose key bounds exclude
// key are pruned without touching the Bloom filter; once a version with
// sequence s is found, the probe stops at the first table whose maxSeq is
// at or below s (no later table can hold anything newer). ctx is
// re-checked between per-table probes, so a cancelled caller stops after
// at most one table's disk read. On a probe failure the offending table
// is returned alongside the error, so the DB-level caller can quarantine
// a table whose blocks fail their checksums. The key is hashed once, for
// every table's Bloom filter.
func probeTables(ctx context.Context, tables []*tableHandle, key []byte) ([]byte, *tableHandle, error) {
	var (
		best    iterator.Entry
		bestPin *cache.Block // pins the block best.Value aliases; nil until a version is found
		hash    = keyhash.Of(key)
	)
	defer func() {
		if bestPin != nil {
			bestPin.Release()
		}
	}()
	checkCtx := ctx.Done() != nil
	for _, th := range tables {
		if bestPin != nil && th.maxSeq <= best.Seq {
			break
		}
		if !th.contains(key) {
			continue
		}
		if checkCtx {
			if err := ctx.Err(); err != nil {
				return nil, nil, err
			}
		}
		e, pin, err := th.rd.GetEntryHashed(key, hash)
		if err != nil {
			if err == sstable.ErrNotFound {
				continue
			}
			return nil, th, err
		}
		if bestPin != nil {
			if e.Seq <= best.Seq {
				pin.Release()
				continue
			}
			bestPin.Release()
		}
		best, bestPin = e, pin
	}
	if bestPin == nil || best.Tombstone {
		return nil, nil, ErrNotFound
	}
	// Only the winner is copied, however many tables held a version: the
	// value aliases its pinned block until the deferred release.
	return append([]byte(nil), best.Value...), nil, nil
}

// contains reports whether key falls inside the table's [smallest,
// largest] bounds; empty tables contain nothing.
func (th *tableHandle) contains(key []byte) bool {
	return th.hasBounds &&
		bytes.Compare(key, th.smallest) >= 0 &&
		bytes.Compare(key, th.largest) <= 0
}

// overlaps reports whether the table's key range intersects [start, end);
// nil bounds are open. Scans prune non-overlapping tables from their merge
// set.
func (th *tableHandle) overlaps(start, end []byte) bool {
	if !th.hasBounds {
		return false
	}
	if start != nil && bytes.Compare(th.largest, start) < 0 {
		return false
	}
	if end != nil && bytes.Compare(th.smallest, end) >= 0 {
		return false
	}
	return true
}
