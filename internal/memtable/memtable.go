// Package memtable implements the in-memory write buffer of an LSM store:
// "writes are quickly logged (via appends) to an in-memory data structure
// called a memtable. When the memtable becomes old or large, its contents
// are sorted by key and flushed to disk" (Section 1 of the paper).
//
// Table is the engine memtable: a skiplist of byte keys whose nodes carry
// a short list of versions (sequence number, tombstone flag, value),
// flushed to a real sstable.
//
// A point-in-time read of a Table is a sequence bound, not a copy. The
// reader registers with Pin, which hands it the bound, while no writer is
// running; GetAt and IterAt under that bound then see, per key, the newest
// version at or below it, lock-free and for as long as the pin is held,
// however many writes land meanwhile. A superseded version is kept only if
// a registered reader can see it: while none is registered an overwrite
// drops the version it replaces, and while some are it still drops one
// written since the newest registration, so a key's version list grows
// with the registrations that fall between its writes, not with its
// writes. What is kept counts toward SizeBytes, so a memtable under scans
// and overwrites reaches its flush threshold instead of growing without
// bound.
//
// A Table's memory is reference-counted apart from the registrations: the
// engine holds a reference while a table is its memtable or its frozen one,
// and every read view, scan and snapshot naming it one more; the last
// Release hands the skiplist's slabs to the next memtable (NewFrom).
package memtable

import (
	"sync/atomic"

	"repro/internal/iterator"
	"repro/internal/skiplist"
)

// Table is the LSM engine's memtable. Reads (Get, GetAt and iterator
// traversal) are safe concurrently with a single writer — the backing
// skiplist publishes nodes and versions through atomic pointers — which is
// what lets the engine's read path run without the store lock. Writers
// (Put, Delete) must be serialized externally and present non-decreasing
// sequence numbers per key; the engine runs them under its commit
// pipeline's store lock. Across keys the order is free: replaying a WAL
// that Open re-logged in key order applies sequences out of order.
type Table struct {
	list *skiplist.List
	// seq is the highest sequence number applied: the bound that covers
	// every write so far. Atomic only so that Pin is safe to call beside a
	// writer; a bound is a point in time only if taken with none running.
	seq atomic.Uint64
	// readers counts registered readers in its low half and every
	// registration ever made in its high half, so that one load tells the
	// writer both whether anyone is reading and whether anyone new is.
	readers atomic.Uint64
	// Writer-side: the registration count last seen, and one past the
	// highest bound a reader can hold — seq as it stood when that count
	// last moved.
	registrations uint64
	retainBelow   uint64
	refs          atomic.Int32 // holders of the table's memory
}

const oneReader = 1<<32 | 1 // a registration, live

// New creates an empty memtable holding one reference for its creator.
// seed controls skiplist tower heights for reproducibility.
func New(seed int64) *Table { return NewFrom(new(skiplist.FreeList), seed) }

// NewFrom is New for a memtable that carves from the slabs free holds and
// whose last Release returns its own to free.
func NewFrom(free *skiplist.FreeList, seed int64) *Table {
	t := &Table{list: free.New(seed)}
	t.refs.Store(1)
	return t
}

// Retain takes one more reference for a holder of one; Retain and Release
// ignore a nil Table.
func (t *Table) Retain() {
	if t != nil {
		t.refs.Add(1)
	}
}

// Release drops one reference. The last one recycles the skiplist: the key
// of every entry the table handed out dies with it.
func (t *Table) Release() {
	if t != nil && t.refs.Add(-1) == 0 {
		t.list.Recycle()
	}
}

// Put records a write of key → value at sequence seq, superseding any
// earlier write of the same key in this memtable. Neither slice is
// retained: the skiplist copies both.
func (t *Table) Put(key, value []byte, seq uint64) {
	t.set(key, value, seq, false)
}

// Delete records a tombstone for key at sequence seq.
func (t *Table) Delete(key []byte, seq uint64) {
	t.set(key, nil, seq, true)
}

// set keeps the version it supersedes only if a registered reader can see
// it: every reader's bound is the seq of its registration or earlier, so
// a version written since the newest registration is nobody's, however
// many readers are registered.
func (t *Table) set(key, value []byte, seq uint64, tombstone bool) {
	r := t.readers.Load()
	if live := uint32(r); live == 0 {
		t.list.Set(key, value, seq, tombstone, 0)
	} else {
		if reg := r >> 32; reg != t.registrations {
			t.registrations, t.retainBelow = reg, t.seq.Load()+1
		}
		t.list.Set(key, value, seq, tombstone, t.retainBelow)
	}
	if seq > t.seq.Load() {
		t.seq.Store(seq)
	}
}

// Pin registers a reader and returns its bound, the highest sequence
// number applied: until the matching Unpin, writes retain the versions
// the reader can see, so reads under the bound keep seeing exactly the
// writes applied so far. That holds only if Pin runs with writers excluded
// — the engine holds the read side of the lock writers apply under — so
// that the bound splits no group of writes and the next write cannot miss
// the registration. A reader that already holds a pin may take another at
// any time for the same point in time: it keeps the bound it has and
// ignores the one returned.
func (t *Table) Pin() (bound uint64) {
	t.readers.Add(oneReader)
	return t.seq.Load()
}

// Unpin drops one registration. It may run at any time. Once the last one
// is gone, versions kept for readers go with the next overwrite of their
// key, or with the memtable.
func (t *Table) Unpin() { t.readers.Add(^uint64(0)) }

// Get returns the newest entry recorded for key in this memtable. The
// second result reports whether the key is present (a tombstone counts as
// present: it means "deleted", which shadows older tables).
func (t *Table) Get(key []byte) (iterator.Entry, bool) {
	return t.GetAt(key, skiplist.MaxSeq)
}

// GetAt is Get as of bound: the newest entry for key with Seq <= bound.
// The entry aliases key and the memtable's immutable value.
func (t *Table) GetAt(key []byte, bound uint64) (iterator.Entry, bool) {
	v := t.list.Get(key, bound)
	if v == nil {
		return iterator.Entry{}, false
	}
	return entry(key, v), true
}

func entry(key []byte, v *skiplist.Version) iterator.Entry {
	return iterator.Entry{Key: key, Value: v.Value, Seq: v.Seq, Tombstone: v.Tombstone}
}

// Len returns the number of distinct keys buffered.
func (t *Table) Len() int { return t.list.Len() }

// SizeBytes approximates the memory footprint: per key its bytes, per
// version — the live one and any retained for readers — its value plus
// nine bytes of sequence number and flag.
func (t *Table) SizeBytes() int { return t.list.SizeBytes() }

// Iter yields the newest entry of every buffered key in ascending key
// order: what a flush writes.
func (t *Table) Iter() iterator.Iterator {
	it := t.IterAt(nil, skiplist.MaxSeq)
	return &it
}

// IterAt yields, in ascending key order from start on (nil: from the first
// key), each key's newest entry with Seq <= bound, skipping keys that have
// none. Entries alias the memtable's keys and immutable values.
func (t *Table) IterAt(start []byte, bound uint64) Iter {
	return Iter{t.list.Seek(start, bound)}
}

// Iter is an iterator.Iterator (through its pointer) over a memtable.
type Iter struct {
	skiplist.Iterator
}

// Entry implements iterator.Iterator.
func (ti *Iter) Entry() iterator.Entry { return entry(ti.Key(), ti.Version()) }
