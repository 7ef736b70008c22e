package lsm

import (
	"bytes"
	"context"
	"slices"
	"sync"

	"repro/internal/iterator"
	"repro/internal/keyhash"
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
// threshold) and a reference on each memtable and table; release drops
// them all.
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
	rs.mem.Release()
	rs.imm.Release()
	releaseTables(rs.tables)
}

// retainOverlapping retains the tables whose key range intersects
// [start, end) and appends them to dst, in the order given. With both
// bounds open that is every table, empty ones included: a whole-keyspace
// snapshot probes by key and keeps the full set. A range of one key,
// [k, k+"\x00") — how a kvnet server reads a stored record's stamp —
// also skips the tables whose Bloom filter rules k out (a raw probe,
// counted nowhere), so it seeks only where k may be.
func retainOverlapping(dst, tables []*tableHandle, start, end []byte) []*tableHandle {
	dst = slices.Grow(dst, len(tables))
	oneKey := len(end) == len(start)+1 && end[len(start)] == 0 && bytes.HasPrefix(end, start)
	var h keyhash.Hash
	if oneKey {
		h = keyhash.Of(start)
	}
	for _, th := range tables {
		if start == nil && end == nil || th.overlaps(start, end) && (!oneKey || th.rd.MayContainHash(h)) {
			th.retain()
			dst = append(dst, th)
		}
	}
	return dst
}

// scan is one range read: the memtables' and tables' iterators of one or
// more read states k-way-merged, the newest version of each key kept,
// deleted keys hidden, the stream cut at an exclusive end. It holds
// everything a read sets up and is recycled with its slices, so once a scan
// has run, NewIterator allocates nothing however many tables and shards it
// merges. Its release closes the table iterators, releases the states and
// recycles the scan: every entry dies there.
type scan struct {
	iterator.Dedup
	states   []readState
	handles  []*tableHandle // every state's tables, end to end
	mems     []memtable.Iter
	tables   []*sstable.Iter
	children []iterator.Iterator
	merge    iterator.Merging
	end      []byte
	open     bool
	release  func() // close, bound once so handing it out allocates nothing
}

var scans = sync.Pool{New: func() any { return new(scan) }}

// source is what a scan reads: a DB's published view or a snapshot's.
type source interface {
	acquireSnapshot(tables []*tableHandle, start, end []byte) (readState, error)
}

// NewShardIterator is NewIterator over several DBs, or several snapshots,
// whose key sets are disjoint — the shards of a store — as one merge. Each
// shard's state is taken in turn: the stream is consistent per shard, not
// across shards.
func NewShardIterator[S source](shards []S, start, end []byte) (iterator.Iterator, func(), error) {
	sc := scans.Get().(*scan)
	if sc.release == nil {
		sc.release = sc.close
	}
	sc.open, sc.end = true, end
	for _, sh := range shards {
		n := len(sc.handles)
		rs, err := sh.acquireSnapshot(sc.handles, start, end)
		if err != nil {
			sc.close()
			return nil, nil, err
		}
		sc.handles, rs.tables = rs.tables, rs.tables[n:]
		sc.states = append(sc.states, rs)
		sc.mems = append(sc.mems, rs.mem.IterAt(start, rs.bound))
		if rs.imm != nil {
			sc.mems = append(sc.mems, rs.imm.IterAt(start, skiplist.MaxSeq))
		}
	}
	for i := range sc.mems {
		sc.children = append(sc.children, &sc.mems[i])
	}
	for _, th := range sc.handles {
		it := th.rd.IterFrom(start)
		sc.tables = append(sc.tables, it)
		sc.children = append(sc.children, it)
	}
	sc.merge.Reset(sc.children...)
	sc.Dedup.Reset(&sc.merge, iterator.IsTombstone)
	return sc, sc.release, nil
}

// close ends the read and recycles the scan. A second release would end
// somebody else's read, so it panics while it still can.
func (sc *scan) close() {
	if !sc.open {
		panic("lsm: iterator released twice")
	}
	for _, it := range sc.tables {
		it.Close()
	}
	for _, rs := range sc.states {
		rs.release()
	}
	sc.merge.Reset()
	*sc = scan{states: emptied(sc.states), handles: emptied(sc.handles), mems: emptied(sc.mems),
		tables: emptied(sc.tables), children: emptied(sc.children), merge: sc.merge, release: sc.release}
	scans.Put(sc)
}

// emptied zeroes s, so a recycled slice holds on to nothing, and returns it
// with its capacity and no elements.
func emptied[T any](s []T) []T {
	clear(s)
	return s[:0]
}

// Valid implements iterator.Iterator.
func (sc *scan) Valid() bool {
	return sc.Dedup.Valid() && (sc.end == nil || bytes.Compare(sc.Entry().Key, sc.end) < 0)
}

// Err reports the error the first failed table iterator ended on: the merge
// treats a failed source as exhausted, and without it a corrupt block would
// end the scan as if it were complete.
func (sc *scan) Err() error {
	for _, it := range sc.tables {
		if err := it.Err(); err != nil {
			return err
		}
	}
	return nil
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
	rs, err := db.acquireSnapshot(nil, nil, nil)
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
// The lookup mirrors DB.GetContext: the memtable as of the snapshot's
// bound wins if it holds any version of the key; otherwise the snapshot's
// sstables are probed in descending max-sequence order with key-range
// pruning and early exit.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
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
	val, _, err := probeTables(context.Background(), s.byseq, key)
	return val, err
}

// NewIterator is DB.NewIterator over the snapshot. The iterator takes its
// own memtable registration and table references, so it remains valid even
// if the snapshot is released while it is still draining.
func (s *Snapshot) NewIterator(start, end []byte) (iterator.Iterator, func(), error) {
	return NewShardIterator([]*Snapshot{s}, start, end)
}

// acquireSnapshot returns a second, independently released state over the
// snapshot's point in time whose tables, appended to tables, are those
// overlapping [start, end). The extra registration is for the bound the
// snapshot already holds, so it needs no writer excluded.
func (s *Snapshot) acquireSnapshot(tables []*tableHandle, start, end []byte) (readState, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.released {
		return readState{}, ErrClosed
	}
	s.rs.mem.Pin()
	s.rs.mem.Retain()
	s.rs.imm.Retain()
	return readState{mem: s.rs.mem, bound: s.rs.bound, imm: s.rs.imm, tables: retainOverlapping(tables, s.rs.tables, start, end)}, nil
}
