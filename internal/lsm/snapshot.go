package lsm

import (
	"bytes"
	"context"
	"sort"
	"sync"

	"repro/internal/iterator"
)

// Snapshot is a consistent point-in-time read view of one DB: the memtable
// entries materialized at acquisition plus the then-live sstables, held
// alive by reference counts. Writes, flushes and compactions after the
// acquisition are invisible through it; superseded sstable files are not
// deleted until every snapshot reading them has been released. A Snapshot
// is safe for concurrent use and must be Released exactly once.
type Snapshot struct {
	// mem holds the memtable's entries at acquisition, sorted by
	// (key asc, seq desc) — the memtable iterator's order.
	mem []iterator.Entry
	// tables is the snapshot's table set in table-set order (newest
	// first); byseq is the same set sorted by descending maxSeq, the
	// probe order point lookups use for pruning and early exit.
	tables []*tableHandle
	byseq  []*tableHandle
	// mu makes reads atomic with Release: a reader in Get (or retaining
	// tables for a new iterator) holds the read lock, so Release cannot
	// drop the table references out from under it.
	mu       sync.RWMutex
	released bool
}

// Snapshot captures a point-in-time view of the whole key space without
// touching the store lock: the memtable is materialized against the
// pinned read view (cost proportional to its entry count); the sstables
// are retained by reference, not copied.
func (db *DB) Snapshot() (*Snapshot, error) {
	mem, tables, err := db.acquireSnapshot(nil, nil)
	if err != nil {
		return nil, err
	}
	return &Snapshot{mem: mem, tables: tables, byseq: sortByMaxSeq(tables)}, nil
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

// Release drops the snapshot's table references; the last release of a
// superseded table closes and deletes it. Further reads through the
// snapshot return ErrClosed. Release is idempotent, and a release
// concurrent with a read waits for the read to finish.
func (s *Snapshot) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.released {
		s.released = true
		releaseTables(s.tables)
	}
}

// Get returns the value stored for key as of the snapshot, or ErrNotFound.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	return s.GetContext(context.Background(), key)
}

// GetContext is Get honoring ctx. The lookup mirrors DB.Get: the
// materialized memtable wins if it holds any version of the key;
// otherwise the snapshot's sstables are probed in descending max-sequence
// order with key-range pruning, early exit, and a context re-check
// between per-table probes.
func (s *Snapshot) GetContext(ctx context.Context, key []byte) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.released {
		return nil, ErrClosed
	}
	// First memtable entry with this key is the newest version (seq desc
	// within a key run).
	i := sort.Search(len(s.mem), func(i int) bool {
		return bytes.Compare(s.mem[i].Key, key) >= 0
	})
	if i < len(s.mem) && bytes.Equal(s.mem[i].Key, key) {
		e := s.mem[i]
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
// its own table references, so it remains valid even if the snapshot is
// released while it is still draining. Tables whose key range falls
// outside the bounds are pruned from the merge set.
func (s *Snapshot) NewIterator(start, end []byte) (iterator.Iterator, func(), error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.released {
		return nil, nil, ErrClosed
	}
	mem := s.mem
	if start != nil {
		i := sort.Search(len(mem), func(i int) bool {
			return bytes.Compare(mem[i].Key, start) >= 0
		})
		mem = mem[i:]
	}
	tables := make([]*tableHandle, 0, len(s.tables))
	for _, th := range s.tables {
		if start == nil && end == nil || th.overlaps(start, end) {
			tables = append(tables, th)
		}
	}
	for _, th := range tables {
		th.retain()
	}
	children := make([]iterator.Iterator, 0, len(tables)+1)
	children = append(children, iterator.NewSlice(mem))
	for _, th := range tables {
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
	return withErrSources(it, children), func() { releaseTables(tables) }, nil
}
