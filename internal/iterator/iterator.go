// Package iterator defines the entry and iterator abstractions shared by
// memtables, sstables and the LSM engine, plus combinators: a k-way heap
// merging iterator (the core of compaction's merge-sort) and a dedup filter
// that keeps only the newest version of each key and drops the winners a
// predicate names: tombstones, for a major compaction and for reads, or
// versions a merge has proved shadowed by a newer table outside it.
package iterator

import (
	"bytes"
	"slices"
)

// Entry is a single versioned key-value record. Tombstone entries mark
// deletions; they carry no value.
type Entry struct {
	Key       []byte
	Value     []byte
	Seq       uint64 // monotonically increasing write sequence number
	Tombstone bool
}

// Iterator yields entries in non-decreasing key order. Multiple entries may
// share a key (different versions); sources must yield them in descending
// Seq order if they contain several, though typically each source holds at
// most one version per key.
type Iterator interface {
	// Valid reports whether the iterator is positioned at an entry.
	Valid() bool
	// Entry returns the current entry. Only valid when Valid() is true.
	Entry() Entry
	// Next advances to the following entry.
	Next()
}

// Merging merges any number of sorted child iterators into one sorted
// stream. When two children are positioned at equal keys, the child with
// the lower index wins ties first (callers order children newest-first so
// the freshest version surfaces before older ones). The heap compares each
// child's current Entry, taken once when the merge positions the child.
type Merging struct {
	children []Iterator
	heads    []Entry // heads[i] is children[i]'s current Entry, zero once it is spent
	heap     []int   // indices into children, ordered as a binary min-heap
}

// NewMerging builds a merging iterator over children. Children that are
// initially invalid are skipped.
func NewMerging(children ...Iterator) *Merging {
	m := new(Merging)
	m.Reset(children...)
	return m
}

// Reset points m at new children as NewMerging would, reusing its heap;
// with none it lets go of the previous ones and of every Entry it held.
func (m *Merging) Reset(children ...Iterator) {
	clear(m.heads) // and heads[len:cap] is zero already
	m.children, m.heap = children, m.heap[:0]
	m.heads = slices.Grow(m.heads[:0], len(children))[:len(children)]
	for i, c := range children {
		if c.Valid() {
			m.heads[i] = c.Entry()
			m.heap = append(m.heap, i)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.siftDown(i)
	}
}

// less orders child i before child j by (key, child index).
func (m *Merging) less(i, j int) bool {
	a, b := m.heap[i], m.heap[j]
	cmp := bytes.Compare(m.heads[a].Key, m.heads[b].Key)
	if cmp != 0 {
		return cmp < 0
	}
	return a < b
}

func (m *Merging) siftDown(i int) {
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < len(m.heap) && m.less(l, smallest) {
			smallest = l
		}
		if r < len(m.heap) && m.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		m.heap[i], m.heap[smallest] = m.heap[smallest], m.heap[i]
		i = smallest
	}
}

// Valid implements Iterator.
func (m *Merging) Valid() bool { return len(m.heap) > 0 }

// Entry implements Iterator.
func (m *Merging) Entry() Entry { return m.heads[m.heap[0]] }

// Next implements Iterator: it advances the top child and takes its next
// Entry, the only head that changes.
func (m *Merging) Next() {
	top := m.heap[0]
	c := m.children[top]
	c.Next()
	if c.Valid() {
		m.heads[top] = c.Entry()
	} else {
		m.heads[top] = Entry{}
		m.heap[0] = m.heap[len(m.heap)-1]
		m.heap = m.heap[:len(m.heap)-1]
	}
	if len(m.heap) > 0 {
		m.siftDown(0)
	}
}

// Dedup filters a sorted stream so each key appears once, keeping the
// highest-Seq (newest) version within each run of equal keys. If drop is
// set, a winning version it reports true for is omitted entirely: with
// IsTombstone, keys whose newest version is a deletion — the semantics of a
// read, and of a major compaction producing the single final sstable.
type Dedup struct {
	src   Iterator
	drop  func(Entry) bool
	cur   Entry
	valid bool
}

// IsTombstone is the drop predicate of a read and of a major compaction's
// root: a key whose newest version is a deletion is absent.
func IsTombstone(e Entry) bool { return e.Tombstone }

// NewDedup wraps src, dropping the winners drop reports (none when nil).
func NewDedup(src Iterator, drop func(Entry) bool) *Dedup {
	d := new(Dedup)
	d.Reset(src, drop)
	return d
}

// Reset points d at a new source, as NewDedup would.
func (d *Dedup) Reset(src Iterator, drop func(Entry) bool) {
	*d = Dedup{src: src, drop: drop}
	d.advance()
}

// advance consumes the next run of equal keys from src and positions d at
// the winning version, skipping dropped ones.
func (d *Dedup) advance() {
	for d.src.Valid() {
		best := d.src.Entry()
		d.src.Next()
		for d.src.Valid() && bytes.Equal(d.src.Entry().Key, best.Key) {
			if e := d.src.Entry(); e.Seq > best.Seq {
				best = e
			}
			d.src.Next()
		}
		if d.drop != nil && d.drop(best) {
			continue
		}
		d.cur = best
		d.valid = true
		return
	}
	d.valid = false
}

// Valid implements Iterator.
func (d *Dedup) Valid() bool { return d.valid }

// Entry implements Iterator.
func (d *Dedup) Entry() Entry { return d.cur }

// Next implements Iterator.
func (d *Dedup) Next() { d.advance() }

// Test support: Drain reads all remaining entries from it into a slice. The
// entries are copies: a source need only keep
// an Entry valid until it is advanced again (sstable iterators recycle
// block memory behind them), and Drain keeps every one.
func Drain(it Iterator) []Entry {
	var out []Entry
	for ; it.Valid(); it.Next() {
		e := it.Entry()
		e.Key = append(e.Key[:0:0], e.Key...)
		e.Value = append(e.Value[:0:0], e.Value...)
		out = append(out, e)
	}
	return out
}
