// Package cache implements a byte-bounded LRU block cache shared by all
// sstable readers of a store. Compaction rewrites cold data constantly; a
// block cache keeps the hot read path from paying disk reads for
// frequently accessed blocks, which is how production LSM engines
// (RocksDB, Cassandra) keep read latency flat while compaction churns in
// the background.
//
// # Ownership
//
// The cache owns its memory. A cached block is a reference-counted Block —
// backing array, payload, LRU links and pin count in one struct — and one
// rule covers every reader: whoever holds a pin may read the block; the
// last Release returns the array. Get hands out a pinned block; a miss is
// filled by taking a buffer from the key's stripe with Alloc (a recycled
// array when one fits, a fresh one otherwise), reading into it, and
// publishing it with Add, which takes the cache's own reference. Eviction,
// DropTable and replacement only drop that reference, so a block some
// reader still pins is never reused under it; the array moves to the
// stripe's free list when the count reaches zero, and in the steady state
// the array an eviction frees is the one the next miss fills. A pin that is
// never released is never recycled: the block falls to the garbage
// collector once unreachable, so forgetting Release costs reuse, never
// correctness.
//
// Free arrays share one bound with resident blocks, cache-wide: resident
// plus free bytes, summed over a cache's stripes, stay within the most
// bytes the cache has ever held resident at once — its high-water mark
// (its capacity, once every stripe has filled) — except that each stripe
// may keep freeListBytes of free arrays, the floor of every free list,
// whatever the mark. When the residents grow into the room, every stripe
// gives up the free arrays it holds above its floor until the sum is back
// within the mark, so a cache holds at most its mark plus a floor per
// stripe. So what eviction, replacement and DropTable free waits for the
// next block up to the room the residents leave below the mark, and what a
// flush or merge publishes into a dropped table's room is carved from that
// table's arrays, whether or not the cache has ever filled.
//
// # Write-through and scan resistance
//
// Three more entry points keep residency following what users read rather
// than what maintenance touches. Publish is the write-through path: a table
// writer that has a block's bytes in hand hands the cache a copy (Alloc,
// copy, Add, Release), so the block is resident before the first Get lands
// on it instead of being read back from the device. Peek is the lookup of
// maintenance — a compaction merge, its purge probe: it pins a resident
// block without promoting it and without touching the hit and miss
// counters, which therefore count user reads only. What such a reader
// misses it reads into a buffer of its own (Uncached recycles those) and
// never publishes. Demote is how a merge pays for its output with its own
// input: a resident block the merge has taken up (and pins), dead once the
// merge commits, goes to the cold end of its stripe marked spent — readable
// still, and a Get brings it back as if nothing had happened, but first in
// line for eviction, so the copy the merge publishes in its place pushes out
// that block instead of a bystander's; a merge that fails takes its inputs
// back with Unspend. A cold Publish — of a block merged from
// input that was not resident — is admitted only into free room or a spent
// block's place, never a live block's: compacting cold data evicts nothing
// anybody reads.
//
// The byte budget counts len(payload) of resident blocks, as it always
// has; admission and eviction order do not depend on pins. Memory outside
// the budget is bounded by construction: a resident array exceeds its
// payload by the frame bytes around it plus at most a quarter and one
// sizeGranule, evicted-but-pinned blocks are bounded by what readers hold
// (a point read pins one block, an iterator two per table), and each free
// list holds at most its floor, and all of them together the room below
// their cache's high-water mark.
package cache

import (
	"sync"
	"sync/atomic"

	"repro/internal/recycle"
)

// Key identifies one cached block: a reader-unique table ID plus the
// block's file offset.
type Key struct {
	Table  uint64
	Offset uint64
}

// Block is one reference-counted block buffer. The holder of a pin may
// read Data (and, before publishing, fill Buf); nobody may write to a
// published block.
type Block struct {
	key          Key
	buf          []byte // the whole backing array; what is recycled
	data         []byte // the payload readers see and the budget counts
	refs         atomic.Int32
	spent        bool   // demoted and not read since; guarded by the LRU's mutex
	prev, next   *Block // LRU links while resident; next links a free list's stack
	tprev, tnext *Block // links among the stripe's resident blocks of key.Table
	home         *freeList
}

// Buf is the buffer Alloc sized for the caller to fill before Add.
func (b *Block) Buf() []byte { return b.buf }

// Data is the block's payload. It stays valid until the caller's Release.
func (b *Block) Data() []byte { return b.data }

// Pin takes one more pin on behalf of a caller that holds one: readers that
// share a buffer each release their own.
func (b *Block) Pin() { b.refs.Add(1) }

// Release drops one pin. The last reference out — the cache's own goes at
// eviction — hands the array to its free list; the caller must not touch
// the block or anything aliasing it afterwards.
func (b *Block) Release() {
	switch n := b.refs.Add(-1); {
	case n == 0:
		b.home.put(b)
	case n < 0:
		panic("cache: Block released more often than pinned")
	}
}

// sizeGranule rounds array capacities so blocks of slightly different
// lengths interchange: a data block's frame falls short of its 1.5 KiB target
// by up to one entry, and without rounding a 1.4 KiB array could not serve a
// 1.5 KiB read; rounded, every full block fills one 1.5 KiB array.
const sizeGranule = 512

// freeListBytes is the floor of every free list's bound: about twenty
// 1.5 KiB arrays, more than a point read and one table's iterator return
// between two misses.
const freeListBytes = 32 << 10

// freeList holds released blocks, struct and array together, for reuse: a
// LIFO stack per array size, linked through Block.next. When the bound
// leaves no room the sizes asked for least recently go first, so arrays
// nobody asks for (a table's short last block) cannot crowd out the rest.
type freeList struct {
	mu sync.Mutex
	// classes[i] holds arrays of i to i+1 granules, up to the floor: one of
	// an unusual size (a block holding one large value) is simply dropped.
	classes []sizeClass
	gets    uint64
	bytes   int
	floor   int   // bound on bytes whatever the mark, fixed at construction
	mark    *mark // the owning cache's; nil for a list bound by its floor alone
}

// mark is the high-water rule of one cache, shared by its stripes: the
// bytes resident and free across them, and the most bytes ever resident at
// once, a stripe counting at most its capacity — so the mark never exceeds
// the cache's capacity, and reaches it once every stripe has filled. over
// is the free bytes the stripes hold above their floors, which trim gives
// up when the residents need the room.
type mark struct {
	used, free, peak, over atomic.Int64
	lists                  []*freeList // every stripe's, fixed at construction
}

// room is the free bytes the mark allows: the high-water mark less the
// bytes resident now, less those already free.
func (m *mark) room() int64 { return m.peak.Load() - m.used.Load() - m.free.Load() }

// raise lifts the high-water mark to the bytes resident now less excess,
// what a stripe holds beyond its capacity until it evicts.
func (m *mark) raise(excess int64) {
	for used := m.used.Load() - excess; ; {
		peak := m.peak.Load()
		if used <= peak || m.peak.CompareAndSwap(peak, used) {
			return
		}
	}
}

// trim drops free arrays above the floors, stripe by stripe, until resident
// plus free bytes are back within the mark or no list holds more than its
// floor.
func (m *mark) trim() {
	for _, f := range m.lists {
		if m.room() >= 0 || m.over.Load() == 0 {
			return
		}
		f.trim()
	}
}

type sizeClass struct {
	top   *Block
	asked uint64 // the get that last asked for this size
}

func newFreeList(floor int, m *mark) freeList {
	return freeList{floor: floor, mark: m, classes: make([]sizeClass, floor/sizeGranule+1)}
}

// fits reports whether n more free bytes keep the list within its bound.
// The caller holds f.mu.
func (f *freeList) fits(n int) bool {
	return f.bytes+n <= f.floor || f.mark != nil && int64(n) <= f.mark.room()
}

// trim drops free arrays, least asked for first, while the list is over
// its bound.
func (f *freeList) trim() {
	f.mu.Lock()
	for !f.fits(0) && f.evict(^uint64(0)) {
	}
	f.mu.Unlock()
}

// get returns a pinned, unpublished block for k with an n-byte Buf: the
// free array last returned among those that fit without wasting more than
// about a quarter of themselves, or a fresh one.
func (f *freeList) get(k Key, n int) *Block {
	need := (n + sizeGranule - 1) / sizeGranule * sizeGranule
	var b *Block
	f.mu.Lock()
	f.gets++
	lo := need / sizeGranule
	if lo < len(f.classes) {
		f.classes[lo].asked = f.gets
	}
	for i := lo; i <= (need+need/4)/sizeGranule && i < len(f.classes); i++ {
		if f.classes[i].top != nil {
			b = f.pop(i)
			break
		}
	}
	f.mu.Unlock()
	if b == nil {
		b = &Block{buf: make([]byte, need), home: f}
	}
	b.key, b.buf = k, b.buf[:n]
	b.refs.Store(1)
	return b
}

// adopt wraps a caller-allocated slice as a pinned, unpublished block.
func (f *freeList) adopt(k Key, value []byte) *Block {
	b := &Block{key: k, buf: value, data: value, home: f}
	b.refs.Store(1)
	return b
}

// put takes a block nobody references any more, keeping it if the bound
// leaves room once arrays of sizes asked for before its own have gone.
func (f *freeList) put(b *Block) {
	b.buf = b.buf[:cap(b.buf)]
	b.data = nil
	i := len(b.buf) / sizeGranule
	if i == 0 || i >= len(f.classes) {
		return
	}
	recycle.Scrub(b.buf)
	f.mu.Lock()
	for !f.fits(len(b.buf)) && f.evict(f.classes[i].asked) {
	}
	if f.fits(len(b.buf)) {
		f.classes[i].top, b.next = b, f.classes[i].top
		f.account(len(b.buf))
	}
	f.mu.Unlock()
}

// account adds n bytes, or takes -n away, from the list and its mark. The
// caller holds f.mu.
func (f *freeList) account(n int) {
	over := max(0, f.bytes-f.floor)
	f.bytes += n
	if f.mark != nil {
		f.mark.free.Add(int64(n))
		f.mark.over.Add(int64(max(0, f.bytes-f.floor) - over))
	}
}

// evict drops an array of the size asked for least recently, if that was
// before asked, and reports whether it did.
func (f *freeList) evict(asked uint64) bool {
	v := -1
	for i := range f.classes {
		if f.classes[i].top != nil && (v < 0 || f.classes[i].asked <= f.classes[v].asked) {
			v = i
		}
	}
	if v < 0 || f.classes[v].asked >= asked {
		return false
	}
	f.pop(v)
	return true
}

// pop takes the newest array of class i, which must have one.
func (f *freeList) pop(i int) *Block {
	b := f.classes[i].top
	f.classes[i].top, b.next = b.next, nil
	f.account(-cap(b.buf))
	return b
}

// LRU is a thread-safe least-recently-used cache bounded by total cached
// bytes. The zero value is unusable; construct with New.
type LRU struct {
	mu       sync.Mutex
	capacity int
	used     int
	mark     *mark // the high-water rule of the cache this is a stripe of
	root     Block // list sentinel: root.next is most recent, root.prev least
	index    map[Key]*Block
	tables   map[uint64]*Block // per table, the first of its resident blocks
	free     freeList

	hits, misses uint64
}

// Test support: New creates a single LRU bounded to capacity bytes (of
// cached payloads; keys, bookkeeping and array slack are not counted).
// capacity must be positive. The engine's cache is NewSharded's.
func New(capacity int) *LRU { return newLRU(capacity, new(mark)) }

// newLRU creates a cache, or one stripe of one, under the high-water rule m.
func newLRU(capacity int, m *mark) *LRU {
	if capacity <= 0 {
		capacity = 1
	}
	c := &LRU{capacity: capacity, index: make(map[Key]*Block), tables: make(map[uint64]*Block), mark: m, free: newFreeList(freeListBytes, m)}
	c.root.prev, c.root.next = &c.root, &c.root
	m.lists = append(m.lists, &c.free)
	return c
}

func (c *LRU) unlink(b *Block) {
	b.prev.next, b.next.prev = b.next, b.prev
	b.prev, b.next = nil, nil
}

func (c *LRU) pushFront(b *Block) {
	b.prev, b.next = &c.root, c.root.next
	b.prev.next, b.next.prev = b, b
}

// evict removes a resident block and drops the cache's reference to it.
func (c *LRU) evict(b *Block) {
	c.used -= len(b.data)
	c.mark.used.Add(-int64(len(b.data)))
	delete(c.index, b.key)
	c.unlink(b)
	switch {
	case b.tprev != nil:
		b.tprev.tnext = b.tnext
	case b.tnext != nil:
		c.tables[b.key.Table] = b.tnext
	default:
		delete(c.tables, b.key.Table)
	}
	if b.tnext != nil {
		b.tnext.tprev = b.tprev
	}
	b.tprev, b.tnext = nil, nil
	b.spent = false
	b.Release()
}

// Get returns the cached block, pinned, and whether it was present. The
// caller must Release it; its Data is shared and must not be modified.
func (c *LRU) Get(k Key) (*Block, bool) {
	c.mu.Lock()
	b, ok := c.index[k]
	if !ok {
		c.misses++
		c.mu.Unlock()
		return nil, false
	}
	c.hits++
	b.spent = false
	if c.root.next != b {
		c.unlink(b)
		c.pushFront(b)
	}
	b.refs.Add(1)
	c.mu.Unlock()
	return b, true
}

// Peek is Get for a reader that must not disturb the cache: the block comes
// back pinned, but its recency is left alone and neither counter moves.
func (c *LRU) Peek(k Key) (*Block, bool) {
	c.mu.Lock()
	b, ok := c.index[k]
	if ok {
		b.refs.Add(1)
	}
	c.mu.Unlock()
	return b, ok
}

// Demote moves b, which the caller pins and nobody will need once the caller
// is done, to the cold end and marks it spent: next to be evicted, until a
// Get takes it back. A block that is not resident — never published, evicted
// since, or replaced under its key — is left alone, and neither counter
// moves.
func (c *LRU) Demote(b *Block) {
	c.mu.Lock()
	if c.index[b.key] == b {
		b.spent = true
		c.unlink(b)
		b.prev, b.next = c.root.prev, &c.root
		b.prev.next, b.next.prev = b, b
	}
	c.mu.Unlock()
}

// Unspend clears the spent mark of every block of table, which stays where
// it is: the blocks of a merge's inputs, live again because the merge will
// not commit. A cold publication no longer makes way with them.
func (c *LRU) Unspend(table uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for b := c.tables[table]; b != nil; b = b.tnext {
		b.spent = false
	}
}

// Alloc returns a pinned, unpublished block for k whose Buf has length n,
// recycled from this cache's free list when an array fits.
func (c *LRU) Alloc(k Key, n int) *Block { return c.free.get(k, n) }

// Add publishes b, obtained from Alloc or Put, with payload — a sub-slice
// of b.Buf — as its contents, replacing any block cached under the same
// key. The cache takes its own reference; the caller keeps its pin. A
// payload larger than the whole cache is not admitted, and the caller's
// pin is then the only reference.
func (c *LRU) Add(b *Block, payload []byte) { c.add(b, payload, false) }

// add is Add; a cold block is admitted only if free room and the spent
// blocks at the cold end make way for it, and otherwise changes nothing.
func (c *LRU) add(b *Block, payload []byte, cold bool) {
	b.data = payload
	if len(payload) > c.capacity {
		return
	}
	c.mu.Lock()
	if !cold || c.admitsCold(len(payload)) {
		if old, ok := c.index[b.key]; ok {
			c.evict(old)
		}
		b.refs.Add(1)
		c.index[b.key] = b
		c.pushFront(b)
		if b.tnext = c.tables[b.key.Table]; b.tnext != nil {
			b.tnext.tprev = b
		}
		c.tables[b.key.Table] = b
		c.used += len(payload)
		c.mark.used.Add(int64(len(payload)))
		// The residents grew: raise the mark, or give up the free room
		// they took.
		c.mark.raise(int64(max(0, c.used-c.capacity)))
		for c.used > c.capacity {
			c.evict(c.root.prev)
		}
		c.mark.trim()
	}
	c.mu.Unlock()
}

// admitsCold reports whether n more bytes fit once spent blocks, and no
// others, have been evicted. The caller holds c.mu.
func (c *LRU) admitsCold(n int) bool {
	need := c.used + n - c.capacity
	for b := c.root.prev; need > 0 && b.spent; b = b.prev {
		need -= len(b.data)
	}
	return need <= 0
}

// Put caches a caller-allocated slice, which the cache adopts: the caller
// must not modify it afterwards. It returns the block pinned, like Get.
func (c *LRU) Put(k Key, value []byte) *Block {
	b := c.free.adopt(k, value)
	c.Add(b, value)
	return b
}

// Publish caches a copy of data under k, most recently used, replacing any
// block already there; data stays the caller's. A cold publication that
// free room and spent blocks do not make way for is dropped, the cache left
// as it was. Nothing is pinned on return and neither counter moves.
func (c *LRU) Publish(k Key, data []byte, cold bool) {
	if len(data) > c.capacity {
		return // Add would not admit it; spare the copy
	}
	if cold {
		c.mu.Lock()
		ok := c.admitsCold(len(data))
		c.mu.Unlock()
		if !ok {
			return // likewise: a cold merge into a full cache publishes nothing
		}
	}
	b := c.Alloc(k, len(data))
	copy(b.Buf(), data)
	c.add(b, b.Buf(), cold)
	b.Release()
}

// DropTable evicts every block belonging to table: called when an sstable
// is deleted after compaction so its blocks stop occupying cache space,
// and when a table write is abandoned after publishing blocks under its id.
func (c *LRU) DropTable(table uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for b := c.tables[table]; b != nil; b = c.tables[table] {
		c.evict(b)
	}
}

// Stats reports cumulative hit/miss counts and current occupancy.
func (c *LRU) Stats() (hits, misses uint64, usedBytes int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.used
}

// Test support: Len returns the number of cached blocks.
func (c *LRU) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.index)
}

// uncached is the cache of a reader that has none: every Get misses and
// nothing is published, but block buffers are the same pinned Blocks,
// recycled through one process-wide free list.
type uncached struct{ free freeList }

// Uncached serves readers opened without a block cache, and the misses of
// readers that must not fill the one they have. Those read whole runs of
// blocks into one buffer (sstable.Reader.ScanIter: up to 32 KiB a run, three
// in flight per input table), so its free list is allowed a few of that
// size: a merge in its steady state frees one as it asks for the next.
var Uncached = &uncached{free: newFreeList(256<<10, nil)}

func (u *uncached) Get(Key) (*Block, bool)       { return nil, false }
func (u *uncached) Peek(Key) (*Block, bool)      { return nil, false }
func (u *uncached) Demote(*Block)                {}
func (u *uncached) Unspend(uint64)               {}
func (u *uncached) Publish(Key, []byte, bool)    {}
func (u *uncached) Alloc(k Key, n int) *Block    { return u.free.get(k, n) }
func (u *uncached) Add(b *Block, payload []byte) { b.data = payload }
func (u *uncached) DropTable(uint64)             {}

// Sharded is a block cache striped over N independent LRU shards, each
// with its own mutex. A single LRU serializes every Get and Put of every
// reader behind one lock; once the engine's read path stops taking the
// store lock, that cache mutex becomes the next serialization point, so
// the cache is partitioned by a hash of the block key. Capacity is split
// evenly across shards, which bounds total memory at the configured
// budget while letting hot shards evict independently.
type Sharded struct {
	shards []*LRU
	mask   uint64
}

// DefaultShards is the shard count NewSharded selects for n <= 0: enough
// stripes that a handful of cores rarely collide, cheap enough that tiny
// caches are not fragmented into uselessness.
const DefaultShards = 16

// minStripeBytes floors a stripe's capacity. Each LRU refuses values
// larger than its own capacity, so over-striping a small budget would
// silently make moderately large blocks uncacheable (a data block holding
// one large value exceeds the 1.5 KiB target, and values can be large); the
// stripe count shrinks before a stripe drops below this admission limit.
const minStripeBytes = 128 << 10

// NewSharded creates a cache bounded to capacity bytes in total, striped
// over n shards (rounded up to a power of two; n <= 0 selects
// DefaultShards). The stripe count is clamped so each stripe keeps at
// least minStripeBytes of budget — a small cache degrades toward a single
// LRU rather than refusing large blocks. Values larger than a stripe's
// capacity remain uncacheable, as with a single LRU of that size.
func NewSharded(capacity, n int) *Sharded {
	if n <= 0 {
		n = DefaultShards
	}
	shards := 1
	for shards < n {
		shards <<= 1
	}
	for shards > 1 && capacity/shards < minStripeBytes {
		shards >>= 1
	}
	if capacity < shards {
		capacity = shards
	}
	s := &Sharded{shards: make([]*LRU, shards), mask: uint64(shards - 1)}
	m := new(mark)
	for i := range s.shards {
		s.shards[i] = newLRU(capacity/shards, m)
	}
	return s
}

// shardFor picks the stripe for a block key. Table IDs are small sequential
// integers and offsets are block-aligned, so the raw bits are a terrible
// hash; a splitmix64-style finalizer spreads them.
func (s *Sharded) shardFor(k Key) *LRU {
	h := k.Table*0x9e3779b97f4a7c15 ^ k.Offset
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return s.shards[h&s.mask]
}

// Get returns the cached block, pinned, and whether it was present.
func (s *Sharded) Get(k Key) (*Block, bool) { return s.shardFor(k).Get(k) }

// Peek returns the cached block, pinned, without promoting it or counting
// the lookup.
func (s *Sharded) Peek(k Key) (*Block, bool) { return s.shardFor(k).Peek(k) }

// Demote marks b spent at the cold end of its stripe.
func (s *Sharded) Demote(b *Block) { s.shardFor(b.key).Demote(b) }

// Publish caches a copy of data in the stripe of k.
func (s *Sharded) Publish(k Key, data []byte, cold bool) { s.shardFor(k).Publish(k, data, cold) }

// Alloc returns a pinned, unpublished block for k with an n-byte Buf from
// the free list of k's stripe.
func (s *Sharded) Alloc(k Key, n int) *Block { return s.shardFor(k).Alloc(k, n) }

// Add publishes a block obtained from Alloc in the stripe of its key.
func (s *Sharded) Add(b *Block, payload []byte) { s.shardFor(b.key).Add(b, payload) }

// Put caches a caller-allocated slice and returns its block, pinned.
func (s *Sharded) Put(k Key, value []byte) *Block { return s.shardFor(k).Put(k, value) }

// DropTable evicts every block belonging to table from every shard.
func (s *Sharded) DropTable(table uint64) {
	for _, sh := range s.shards {
		sh.DropTable(table)
	}
}

// Unspend clears the spent mark of every block of table in every shard.
func (s *Sharded) Unspend(table uint64) {
	for _, sh := range s.shards {
		sh.Unspend(table)
	}
}

// Stats reports cumulative hit/miss counts and occupancy summed across
// shards.
func (s *Sharded) Stats() (hits, misses uint64, usedBytes int) {
	for _, sh := range s.shards {
		h, m, u := sh.Stats()
		hits += h
		misses += m
		usedBytes += u
	}
	return hits, misses, usedBytes
}

// Balance summarizes striping skew as the ratio of the fullest shard's
// occupancy to the mean occupancy. 1.0 is perfectly even, the shard
// count is the worst case (all blocks hashed onto one stripe), and a
// cache with no blocks at all reports 0. Max/mean rather than max/min:
// a lightly loaded cache legitimately leaves stripes empty, which would
// blow a max/min ratio up without any real skew.
func (s *Sharded) Balance() float64 {
	total, maxUsed := 0, 0
	for _, sh := range s.shards {
		_, _, u := sh.Stats()
		total += u
		if u > maxUsed {
			maxUsed = u
		}
	}
	if total == 0 {
		return 0
	}
	return float64(maxUsed) * float64(len(s.shards)) / float64(total)
}

// Test support: Len returns the number of cached blocks across all shards.
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		n += sh.Len()
	}
	return n
}
