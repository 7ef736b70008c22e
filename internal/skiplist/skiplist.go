// Package skiplist provides an ordered in-memory map from byte-string keys
// to versioned values, implemented as a probabilistic skip list. It backs
// the LSM engine's memtable: inserts and lookups are O(log n) expected, and
// an iterator yields entries in key order so a memtable can be flushed to a
// sorted sstable in a single pass.
//
// Each key's node holds the head of a version list: the newest write of
// the key, linked to the write it superseded when the writer asked for
// that one to be retained. A read names a sequence bound and sees, per
// key, the newest version whose Seq is at or below it; a key whose
// versions are all above the bound — in particular every node inserted
// after the bound was taken — is invisible. A reader that fixed its bound
// while no Set was running therefore observes one point in time for as
// long as it likes, without a lock and without a copy. Reading under
// MaxSeq sees every head: the live view.
//
// Retention is the writer's call, per Set: an overwrite keeps the version
// it supersedes only if that version's Seq is below the retainBelow it is
// given, and otherwise unlinks it. With retainBelow zero that is a plain
// map: nothing is ever kept. With retainBelow one past the highest bound
// any reader holds, exactly the versions some reader can see are kept, so a
// key's list grows with the number of reader bounds that fall between its
// writes, not with the number of writes — which matters because reading
// under a bound walks the list from its head. Nothing here knows who the
// readers are — the memtable registers them and picks retainBelow.
//
// A write allocates one object: its version, which carries a copy of the
// value inline (up to 208 bytes; a larger value gets an array of its own).
// Nodes, the towers of forward pointers of the tall ones, and their key
// copies are carved from slabs the list owns, since a node lives as long as
// the list. Versions are not: a superseded version that no reader can see
// is unlinked and left to the garbage collector, so a key overwritten a
// million times holds one version's memory, not a million — the same bound
// SizeBytes reports.
//
// A node is 64 bytes, one cache line: its key, the key's first 8 bytes as a
// big-endian integer (zero-padded), its version list's head, its forward
// links at levels 0 and 1, and a pointer to a tower holding the links
// above. A search compares the integers and compares keys only when they
// tie, and fifteen nodes in sixteen have no tower at all, so most hops of a
// search read one node and nothing it points to.
//
// A list's slabs come from a FreeList and go back to it, zeroed, when the
// list is recycled once nothing reads it any more; the memtable filling
// meanwhile carves from them, so in steady state a memtable allocates no
// slab.
//
// The list is safe for any number of concurrent readers (Get, Seek and
// iterator traversal) alongside a single writer: nodes and versions are
// fully initialized before they are published through atomic pointers, a
// published node's key and a published version are never modified, and
// nodes are never unlinked. Writers (Set) must be serialized externally —
// the memtable's engine runs them under its commit pipeline's store lock —
// and must present non-decreasing sequence numbers per key, which is what
// keeps every version list sorted newest first.
package skiplist

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/recycle"
)

const (
	maxHeight = 12
	// pInverse is the inverse of the promotion probability: each node is
	// promoted to the next level with probability 1/pInverse.
	pInverse = 4
	// versionOverhead is what SizeBytes charges a version on top of its
	// value: the sequence number and the tombstone flag.
	versionOverhead = 9
	// inlineLevels is how many of a node's forward links it holds itself;
	// a node linked higher has a tower of the rest, carved from the tower
	// slabs at full height so that the node holds it by one pointer.
	inlineLevels = 2
	// nodeSlab is how many nodes one slab holds (16 KiB), towerSlab how many
	// forward pointers (8 KiB, 102 towers; one node in 16 has a tower), and
	// keySlab the bytes of one key slab; a key longer than maxSlabKey gets an
	// array of its own rather than strand the rest of a slab.
	nodeSlab   = 256
	towerSlab  = 1024
	keySlab    = 4 << 10
	maxSlabKey = keySlab / 8
)

// MaxSeq is the bound under which every key's newest version is visible.
const MaxSeq = math.MaxUint64

// Version is one write of a key. It is immutable once published; readers
// may alias Value for as long as they can reach the version.
type Version struct {
	Seq       uint64
	Tombstone bool
	Value     []byte
	// prev is the version this one superseded, when the writer retained
	// it: strictly older, so a walk from the head meets sequences in
	// descending order.
	prev *Version
}

type node struct {
	key []byte
	// prefix is key's first 8 bytes, zero-padded, as a big-endian integer
	// (see keyPrefix).
	prefix uint64
	// head is swapped atomically when the key is overwritten, so a
	// lock-free reader sees either the old or the new version, never a
	// torn mix.
	head  atomic.Pointer[Version]
	next  [inlineLevels]atomic.Pointer[node]
	tower *tower // nil unless the node is linked above level inlineLevels-1
}

// tower holds a node's links from level inlineLevels up.
type tower [maxHeight - inlineLevels]atomic.Pointer[node]

// link returns the node's forward link at level.
func (n *node) link(level int) *atomic.Pointer[node] {
	if level < inlineLevels {
		return &n.next[level]
	}
	return &n.tower[level-inlineLevels]
}

func (n *node) loadNext(level int) *node { return n.link(level).Load() }

// keyPrefix returns key's first 8 bytes, zero-padded, as a big-endian
// integer. Two keys whose prefixes differ order as their prefixes do (a key
// that pads with zeros is a prefix of the other, or smaller at the first
// byte they differ in), so only keys whose prefixes tie need a byte compare.
func keyPrefix(key []byte) uint64 {
	if len(key) >= 8 {
		return binary.BigEndian.Uint64(key)
	}
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// compare orders n's key against key, whose prefix is p.
func (n *node) compare(key []byte, p uint64) int {
	if n.prefix != p {
		return cmp.Compare(n.prefix, p)
	}
	return bytes.Compare(n.key, key)
}

// holds reports whether n's key is key, whose prefix is p. A node whose
// prefix differs answers without a read of its key.
func (n *node) holds(key []byte, p uint64) bool {
	return n.prefix == p && bytes.Equal(n.key, key)
}

// at returns the node's newest version with Seq <= bound, or nil.
func (n *node) at(bound uint64) *Version {
	v := n.head.Load()
	for v != nil && v.Seq > bound {
		v = v.prev
	}
	return v
}

// newVersion allocates a version together with a copy of value. The 48
// bytes of Version plus each inline size land exactly on a Go size class
// (64, 96, 160, 256 bytes), so the copy costs no object and no rounding of
// its own. An empty value stays nil, as a tombstone's is.
func newVersion(value []byte, seq uint64, tombstone bool) *Version {
	var v *Version
	var buf []byte
	switch n := len(value); {
	case n == 0:
		v = new(Version)
	case n <= 16:
		iv := new(struct {
			Version
			buf [16]byte
		})
		v, buf = &iv.Version, iv.buf[:n:n]
	case n <= 48:
		iv := new(struct {
			Version
			buf [48]byte
		})
		v, buf = &iv.Version, iv.buf[:n:n]
	case n <= 112:
		iv := new(struct {
			Version
			buf [112]byte
		})
		v, buf = &iv.Version, iv.buf[:n:n]
	case n <= 208:
		iv := new(struct {
			Version
			buf [208]byte
		})
		v, buf = &iv.Version, iv.buf[:n:n]
	default:
		v, buf = new(Version), make([]byte, n)
	}
	copy(buf, value)
	v.Seq, v.Tombstone, v.Value = seq, tombstone, buf
	return v
}

// List is an ordered map with byte-slice keys. The zero value is not
// usable; construct with New. Readers may run concurrently with one
// writer; see the package comment for the exact contract.
type List struct {
	head node
	// height is loaded by lock-free readers while the writer grows it.
	height atomic.Int32
	length int
	bytes  int // keys plus every linked version, for size accounting
	rng    *rand.Rand
	nodes  slabs[node]
	towers slabs[atomic.Pointer[node]]
	keys   slabs[byte]
	free   *FreeList // where the slabs come from and Recycle returns them
}

// slabs carves runs of one kind of element from the slabs in all.
type slabs[T any] struct {
	all  [][]T
	tail []T // what is left of the last slab
}

// carve returns n elements of the last slab or, if it has too few left, of
// the next: one popped from spare (under mu), or a fresh one of size
// elements.
func (s *slabs[T]) carve(n, size int, mu *sync.Mutex, spare *[][]T) []T {
	if len(s.tail) < n {
		mu.Lock()
		if k := len(*spare); k > 0 {
			s.tail, (*spare)[k-1], *spare = (*spare)[k-1], nil, (*spare)[:k-1]
		} else {
			s.tail = make([]T, size)
		}
		mu.Unlock()
		s.all = append(s.all, s.tail)
	}
	run := s.tail[:n:n]
	s.tail = s.tail[n:]
	return run
}

// retire moves the slabs onto spare, which keeps no more than s had, and
// empties s.
func (s *slabs[T]) retire(spare [][]T) [][]T {
	spare = append(spare, s.all[:max(len(s.all)-len(spare), 0)]...)
	clear(s.all)
	s.all, s.tail = s.all[:0], nil
	return spare
}

// FreeList holds the slabs of the lists recycled into it — about one
// memtable's worth — for the lists drawn from it to carve from, and the
// last such list for the next New to reuse. The zero value is empty; it is
// safe for concurrent use.
type FreeList struct {
	mu     sync.Mutex
	list   *List
	nodes  [][]node
	towers [][]atomic.Pointer[node]
	keys   [][]byte
}

// New returns an empty list that carves from f's slabs and whose Recycle
// returns its own to f.
func (f *FreeList) New(seed int64) *List {
	f.mu.Lock()
	l := f.list
	f.list = nil
	f.mu.Unlock()
	if l == nil {
		l = &List{rng: rand.New(rand.NewSource(seed)), free: f}
		l.head.tower = new(tower)
	} else {
		l.rng.Seed(seed)
	}
	l.height.Store(1)
	return l
}

// Recycle returns the list's slabs to its free list zeroed, so no retired
// version stays reachable (under recycle.Poison, keys poisoned).
// Nothing may touch the list, or a key it handed out, afterwards.
func (l *List) Recycle() {
	for _, slab := range l.nodes.all {
		clear(slab)
	}
	for _, slab := range l.towers.all {
		clear(slab)
	}
	for _, slab := range l.keys.all {
		recycle.Scrub(slab)
	}
	clear(l.head.next[:])
	clear(l.head.tower[:])
	l.length, l.bytes = 0, 0
	f := l.free
	f.mu.Lock()
	f.nodes, f.towers, f.keys = l.nodes.retire(f.nodes), l.towers.retire(f.towers), l.keys.retire(f.keys)
	f.list = l
	f.mu.Unlock()
}

// Len returns the number of distinct keys. Writer-side accounting: callers
// must synchronize with Set externally.
func (l *List) Len() int { return l.length }

// SizeBytes returns the size of all keys plus, per linked version, its
// value and versionOverhead — retained versions included, which is how a
// memtable with registered readers still reaches its flush threshold.
// Writer-side accounting, like Len.
func (l *List) SizeBytes() int { return l.bytes }

func (l *List) randomHeight() int {
	h := 1
	for h < maxHeight && l.rng.Intn(pInverse) == 0 {
		h++
	}
	return h
}

// findGreaterOrEqual locates the first node with key >= target, whose
// prefix is p, and fills prev with the rightmost node before it at every
// level. The node returned is the one the level-0 walk compared against
// key, not a fresh load of the same pointer: a writer may link a smaller key
// there in between, and a lock-free reader handed that node would miss a
// key that is present.
func (l *List) findGreaterOrEqual(key []byte, p uint64, prev *[maxHeight]*node) *node {
	x := &l.head
	var nx *node
	for level := int(l.height.Load()) - 1; level >= 0; level-- {
		for {
			nx = x.loadNext(level)
			if nx == nil || nx.compare(key, p) >= 0 {
				break
			}
			x = nx
		}
		if prev != nil {
			prev[level] = x
		}
	}
	return nx
}

// newNode carves a node of height h holding a copy of key from the slabs.
func (l *List) newNode(key []byte, h int) *node {
	f := l.free
	n := &l.nodes.carve(1, nodeSlab, &f.mu, &f.nodes)[0]
	if h > inlineLevels {
		n.tower = (*tower)(l.towers.carve(maxHeight-inlineLevels, towerSlab, &f.mu, &f.towers))
	}
	n.prefix = keyPrefix(key)
	if len(key) > maxSlabKey {
		n.key = append([]byte(nil), key...)
	} else {
		n.key = l.keys.carve(len(key), keySlab, &f.mu, &f.keys)
		copy(n.key, key)
	}
	return n
}

// Set records a write of key at sequence seq, superseding any earlier
// write of it. The superseded version stays linked behind the new one if
// its Seq is below retainBelow — a reader bounded at or above it may
// exist; otherwise it is unlinked, and with retainBelow zero so is
// everything behind it. Neither slice is retained: the value is copied
// into the new version, and the key into a new node when it is new to the
// list. Set calls must be serialized externally, with retainBelow never
// falling while it is non-zero; readers may run concurrently.
func (l *List) Set(key, value []byte, seq uint64, tombstone bool, retainBelow uint64) {
	v := newVersion(value, seq, tombstone)
	l.bytes += versionOverhead + len(value)
	var prev [maxHeight]*node
	p := keyPrefix(key)
	if n := l.findGreaterOrEqual(key, p, &prev); n != nil && n.holds(key, p) {
		// Versions behind the head were kept under an earlier, lower
		// retainBelow, so unless it is zero the walk stops after one step.
		old := n.head.Load()
		for ; old != nil && old.Seq >= retainBelow; old = old.prev {
			l.bytes -= versionOverhead + len(old.Value)
		}
		v.prev = old
		n.head.Store(v)
		return
	}
	h := l.randomHeight()
	if h > int(l.height.Load()) {
		for level := int(l.height.Load()); level < h; level++ {
			prev[level] = &l.head
		}
		l.height.Store(int32(h))
	}
	n := l.newNode(key, h)
	n.head.Store(v)
	// Initialize every level's forward pointer before publishing the node
	// at any level: a reader that encounters n through one level's link can
	// safely continue through any lower level.
	for level := 0; level < h; level++ {
		n.link(level).Store(prev[level].loadNext(level))
	}
	for level := 0; level < h; level++ {
		prev[level].link(level).Store(n)
	}
	l.length++
	l.bytes += len(key)
}

// Get returns key's newest version with Seq <= bound, or nil when the key
// is absent or every version of it is newer. Safe to call concurrently
// with one writer.
func (l *List) Get(key []byte, bound uint64) *Version {
	p := keyPrefix(key)
	if n := l.findGreaterOrEqual(key, p, nil); n != nil && n.holds(key, p) {
		return n.at(bound)
	}
	return nil
}

// Iterator walks the list in ascending key order, yielding for each key
// its newest version under the iterator's bound and skipping keys that
// have none. Under MaxSeq that is the usual weakly-consistent lock-free
// contract — entries inserted ahead of the iterator become visible, those
// behind it are missed; under a bound taken while no Set was running the
// traversal is a point-in-time view.
type Iterator struct {
	n     *node
	v     *Version
	bound uint64
}

// Seek returns an iterator positioned at the first visible entry with
// key >= start under bound; a nil start begins at the first key.
func (l *List) Seek(start []byte, bound uint64) Iterator {
	// A nil start compares below every key, so the search lands on the
	// first node.
	it := Iterator{n: l.findGreaterOrEqual(start, keyPrefix(start), nil), bound: bound}
	it.settle()
	return it
}

// settle moves forward to the first node, from the current one on, that
// has a version under the bound.
func (it *Iterator) settle() {
	for ; it.n != nil; it.n = it.n.loadNext(0) {
		if it.v = it.n.at(it.bound); it.v != nil {
			return
		}
	}
}

// Valid reports whether the iterator is positioned at an entry.
func (it *Iterator) Valid() bool { return it.n != nil }

// Key returns the current key. Only valid when Valid() is true.
func (it *Iterator) Key() []byte { return it.n.key }

// Version returns the current key's version under the iterator's bound.
// Only valid when Valid() is true.
func (it *Iterator) Version() *Version { return it.v }

// Next advances to the following visible entry.
func (it *Iterator) Next() {
	it.n = it.n.loadNext(0)
	it.settle()
}
