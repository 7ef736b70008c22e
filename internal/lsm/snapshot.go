package lsm

import (
	"context"
	"sync"

	"repro/internal/iterator"
	"repro/internal/memtable"
	"repro/internal/skiplist"
	"repro/internal/sstable"
)

// readState is one point-in-time read of a DB: a memtable with the
// sequence bound under which to read it, the frozen memtable that was
// awaiting its flush (nil if none; nothing writes to it, so it needs neither
// bound nor registration), plus the sstables that were live beside them,
// newest first. Holding one keeps a reader registration on the memtable
// (writes retain the versions it can see, counted toward the flush
// threshold) and a reference on each table; release drops both.
type readState struct {
	mem    *memtable.Table
	bound  uint64
	imm    *memtable.Table
	tables []*tableHandle
}

// getMem is the point read of the state's memtables: the newest version of
// key as of the state, if they hold one.
func (rs readState) getMem(key []byte) (iterator.Entry, bool) {
	e, ok := rs.mem.GetAt(key, rs.bound)
	if !ok && rs.imm != nil {
		e, ok = rs.imm.Get(key)
	}
	return e, ok
}

func (rs readState) release() {
	rs.mem.Unpin()
	releaseTables(rs.tables)
}

// narrow returns a second, independently released state over the same
// point in time whose tables are those overlapping [start, end). rs must
// still be held: the extra registration is for the bound rs already has,
// so it needs no writer excluded.
func (rs readState) narrow(start, end []byte) readState {
	rs.mem.Pin()
	return readState{mem: rs.mem, bound: rs.bound, imm: rs.imm, tables: retainOverlapping(rs.tables, start, end)}
}

// retainOverlapping retains and returns the tables whose key range
// intersects [start, end), in the order given. With both bounds open that
// is every table, empty ones included: a whole-keyspace snapshot probes by
// key and keeps the full set.
func retainOverlapping(tables []*tableHandle, start, end []byte) []*tableHandle {
	out := make([]*tableHandle, 0, len(tables))
	for _, th := range tables {
		if start == nil && end == nil || th.overlaps(start, end) {
			th.retain()
			out = append(out, th)
		}
	}
	return out
}

// newIterator merges the state's memtables and tables over [start, end)
// (nil bounds are open), newest version per key, deleted keys hidden. The
// state's tables must already be narrowed to the range. The state changes
// hands: the returned func ends the read, closing the table iterators
// (their block pins) and releasing the state.
func newIterator(rs readState, start, end []byte) (iterator.Iterator, func()) {
	children := make([]iterator.Iterator, 0, len(rs.tables)+2)
	children = append(children, rs.mem.IterAt(start, rs.bound))
	if rs.imm != nil {
		children = append(children, rs.imm.IterAt(start, skiplist.MaxSeq))
	}
	mems := len(children)
	for _, th := range rs.tables {
		if start == nil {
			children = append(children, th.rd.Iter())
		} else {
			children = append(children, th.rd.IterFrom(start))
		}
	}
	var it iterator.Iterator = iterator.NewDedup(iterator.NewMerging(children...), true)
	if end != nil {
		it = &boundedIter{Iterator: it, end: end}
	}
	return withErrSources(it, children), func() {
		for _, c := range children[mems:] {
			c.(*sstable.Iter).Close()
		}
		rs.release()
	}
}

// Snapshot is a consistent point-in-time read view of one DB: the memtable
// as of a sequence bound, a frozen memtable awaiting its flush, plus the
// then-live sstables, held alive by a
// reader registration and reference counts. Writes, flushes and
// compactions after the acquisition are invisible through it. Taking one
// costs O(tables) whatever the memtable holds; until it is released its
// memtable stays in memory, the versions it sees there stay linked and
// count toward the flush threshold once superseded, and superseded sstable
// files are not deleted. A Snapshot is safe for concurrent use and must be Released
// exactly once.
type Snapshot struct {
	rs readState
	// byseq is the state's table set sorted by descending maxSeq, the
	// probe order point lookups use for pruning and early exit.
	byseq []*tableHandle
	// mu makes reads atomic with Release: a reader in Get (or deriving the
	// state of a new iterator) holds the read lock, so Release cannot drop
	// the references out from under it.
	mu       sync.RWMutex
	released bool
}

// Snapshot captures a point-in-time view of the whole key space without
// touching the store lock: the memtable is pinned at its current sequence
// bound and the sstables are retained by reference; nothing is copied.
func (db *DB) Snapshot() (*Snapshot, error) {
	rs, err := db.acquireSnapshot(nil, nil)
	if err != nil {
		return nil, err
	}
	return &Snapshot{rs: rs, byseq: sortByMaxSeq(rs.tables)}, nil
}

// SnapshotView is the read surface of a point-in-time snapshot, the part
// *Snapshot and the sharded store's snapshot have in common, so the layers
// above (the network server, the kv façade) can hold either one.
type SnapshotView interface {
	Get(key []byte) ([]byte, error)
	NewIterator(start, end []byte) (iterator.Iterator, func(), error)
	Release()
}

// SnapshotView is Snapshot behind the interface both engines share.
func (db *DB) SnapshotView() (SnapshotView, error) {
	s, err := db.Snapshot()
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Release drops the snapshot's memtable registration and table references;
// the last release of a superseded table closes and deletes it. Further
// reads through the snapshot return ErrClosed. Release is idempotent, and
// a release concurrent with a read waits for the read to finish.
func (s *Snapshot) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.released {
		s.released = true
		s.rs.release()
	}
}

// Get returns the value stored for key as of the snapshot, or ErrNotFound.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	return s.GetContext(context.Background(), key)
}

// GetContext is Get honoring ctx. The lookup mirrors DB.Get: the memtable
// as of the snapshot's bound wins if it holds any version of the key;
// otherwise the snapshot's sstables are probed in descending max-sequence
// order with key-range pruning, early exit, and a context re-check
// between per-table probes.
func (s *Snapshot) GetContext(ctx context.Context, key []byte) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.released {
		return nil, ErrClosed
	}
	if e, ok := s.rs.getMem(key); ok {
		if e.Tombstone {
			return nil, ErrNotFound
		}
		return append([]byte(nil), e.Value...), nil
	}
	// The offending table of a failed probe is dropped here: a snapshot
	// has no DB to quarantine through, and its caller still gets the
	// typed corruption error.
	val, _, err := probeTables(ctx, s.byseq, key)
	return val, err
}

// NewIterator returns an iterator over the snapshot's live entries with
// start <= key < end (nil bounds are open), with deleted keys hidden, plus
// a release function the caller must invoke when done. The iterator takes
// its own memtable registration and table references, so it remains valid
// even if the snapshot is released while it is still draining. Tables
// whose key range falls outside the bounds are pruned from the merge set.
func (s *Snapshot) NewIterator(start, end []byte) (iterator.Iterator, func(), error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.released {
		return nil, nil, ErrClosed
	}
	it, release := newIterator(s.rs.narrow(start, end), start, end)
	return it, release, nil
}
