package lsm

import (
	"bytes"
	"context"
	"slices"
	"sync"

	"repro/internal/iterator"
	"repro/internal/memtable"
	"repro/internal/recycle"
	"repro/internal/skiplist"
	"repro/internal/sstable"
)

// scan is one range read: the memtables' and tables' iterators of one or
// more pinned read views k-way-merged, the newest version of each key kept,
// deleted keys hidden, the stream cut at an exclusive end. It holds one
// pin and one memtable registration per view, as every other reader does,
// and is recycled with its slices and the table iterators it holds by
// value, key arenas included, so once a scan has run, NewIterator
// allocates nothing however many tables and shards it merges. Its release
// closes the table iterators, drops the registrations and pins and
// recycles the scan: every entry dies there.
type scan struct {
	recycle.Mark
	iterator.Dedup
	views    []*readView
	mems     []memtable.Iter
	tables   []sstable.Iter
	children []iterator.Iterator
	merge    iterator.Merging
	end      []byte
	release  func() // close, bound once so handing it out allocates nothing
}

var scans = recycle.Pool[*scan]{New: func() *scan { return new(scan) }}

// Reset implements recycle.Recyclable.
func (sc *scan) Reset() {
	sc.merge.Reset()
	*sc = scan{views: emptied(sc.views), mems: emptied(sc.mems), tables: sc.tables[:0],
		children: emptied(sc.children), merge: sc.merge, release: sc.release}
}

// source is what a scan reads: a DB's published view or a snapshot's.
type source interface {
	pinAt() (*readView, uint64, error)
}

// NewShardIterator is NewIterator over several DBs, or several snapshots,
// whose key sets are disjoint — the shards of a store — as one merge. Each
// shard's view is pinned in turn: the stream is consistent per shard, not
// across shards. Only the view's tables overlapping [start, end) are read,
// but the pin keeps all of them until the release.
func NewShardIterator[S source](shards []S, start, end []byte) (iterator.Iterator, func(), error) {
	sc := scans.Get()
	if sc.release == nil {
		sc.release = sc.close
	}
	sc.end = end
	for _, sh := range shards {
		v, bound, err := sh.pinAt()
		if err != nil {
			sc.close()
			return nil, nil, err
		}
		sc.views = append(sc.views, v)
		sc.mems = append(sc.mems, v.mem.IterAt(start, bound))
		if v.imm != nil {
			sc.mems = append(sc.mems, v.imm.IterAt(start, skiplist.MaxSeq))
		}
	}
	for _, v := range sc.views {
		for _, th := range v.tables {
			if th.overlaps(start, end) {
				n := len(sc.tables) // reslice: an Iter past len keeps its arenas
				sc.tables = slices.Grow(sc.tables, 1)[:n+1]
				th.rd.OpenIter(&sc.tables[n], start)
			}
		}
	}
	for i := range sc.mems {
		sc.children = append(sc.children, &sc.mems[i])
	}
	for i := range sc.tables {
		sc.children = append(sc.children, &sc.tables[i])
	}
	sc.merge.Reset(sc.children...)
	sc.Dedup.Reset(&sc.merge, iterator.IsTombstone)
	return sc, sc.release, nil
}

// close ends the read and recycles the scan; a second release panics in
// Put.
func (sc *scan) close() {
	for i := range sc.tables {
		sc.tables[i].Close()
	}
	for _, v := range sc.views {
		v.mem.Unpin()
		v.unpin()
	}
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
	for i := range sc.tables {
		if err := sc.tables[i].Err(); err != nil {
			return err
		}
	}
	return nil
}

// Snapshot is a consistent point-in-time read view of one DB: the read
// view that was published when it was taken, pinned, with the sequence
// bound under which it reads the view's memtable, where it holds a reader
// registration. Writes, flushes and compactions after the acquisition are
// invisible through it. Taking one costs O(1) whatever the memtable and
// the table set hold; until it is released its memtable stays in memory,
// the versions it sees there stay linked and count toward the flush
// threshold once superseded, and superseded sstable files are not deleted.
// A Snapshot is safe for concurrent use and must be Released exactly once.
type Snapshot struct {
	view  *readView
	bound uint64
	// mu makes reads atomic with Release: a reader in Get (or pinning the
	// view for a new iterator) holds the read lock, so Release cannot drop
	// the references out from under it.
	mu       sync.RWMutex
	released bool
}

// Snapshot captures a point-in-time view of the whole key space without
// touching the store lock: the published view is pinned and its memtable
// registered at its current sequence bound; nothing is copied.
func (db *DB) Snapshot() (*Snapshot, error) {
	v, bound, err := db.pinAt()
	if err != nil {
		return nil, err
	}
	return &Snapshot{view: v, bound: bound}, nil
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

// Release drops the snapshot's memtable registration and view pin; the
// last release of a superseded table closes and deletes it. Further
// reads through the snapshot return ErrClosed. Release is idempotent, and
// a release concurrent with a read waits for the read to finish.
func (s *Snapshot) Release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.released {
		s.released = true
		s.view.mem.Unpin()
		s.view.unpin()
	}
}

// Get returns the value stored for key as of the snapshot, or ErrNotFound:
// DB.GetContext's lookup, reading the memtable under the snapshot's bound.
func (s *Snapshot) Get(key []byte) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.released {
		return nil, ErrClosed
	}
	// The offending table of a failed probe is dropped here: a snapshot
	// has no DB to quarantine through, and its caller still gets the
	// typed corruption error.
	val, _, err := s.view.get(context.Background(), key, s.bound)
	return val, err
}

// NewIterator is DB.NewIterator over the snapshot. The iterator takes its
// own pin on the snapshot's view and its own memtable registration, so it
// remains valid even if the snapshot is released while it is still
// draining.
func (s *Snapshot) NewIterator(start, end []byte) (iterator.Iterator, func(), error) {
	return NewShardIterator([]*Snapshot{s}, start, end)
}

// pinAt takes a second pin on the snapshot's view and a second
// registration on its memtable, released independently of the snapshot's.
// The registration is for the bound the snapshot already holds, so it
// needs no writer excluded, and the pin cannot fail while the snapshot
// holds its own.
func (s *Snapshot) pinAt() (*readView, uint64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.released {
		return nil, 0, ErrClosed
	}
	s.view.pin()
	s.view.mem.Pin()
	return s.view, s.bound, nil
}
