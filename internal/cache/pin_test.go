package cache

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/recycle"
)

// parentLRU is the algorithm this package had before blocks were pinned:
// a map, a recency order and a byte budget — plus the one rule added since:
// a demoted key goes to the back, spent until it is next read, and a cold
// put happens only if evicting spent keys is enough. The model test holds
// the real cache to its decisions.
type parentLRU struct {
	capacity, used int
	peak           int   // the most bytes resident after any put, capped at capacity
	order          []Key // front = most recent
	size           map[Key]int
	spent          map[Key]bool
}

func (m *parentLRU) touch(k Key) {
	for i, o := range m.order {
		if o == k {
			copy(m.order[1:i+1], m.order[:i])
			m.order[0] = k
			return
		}
	}
	m.order = append([]Key{k}, m.order...)
}

func (m *parentLRU) get(k Key) bool {
	if _, ok := m.size[k]; !ok {
		return false
	}
	m.touch(k)
	delete(m.spent, k)
	return true
}

func (m *parentLRU) remove(i int) {
	k := m.order[i]
	m.order = append(m.order[:i], m.order[i+1:]...)
	m.used -= m.size[k]
	delete(m.size, k)
	delete(m.spent, k)
}

// put reports whether k was admitted.
func (m *parentLRU) put(k Key, n int, cold bool) bool {
	if n > m.capacity {
		return false
	}
	if cold { // only free room and the spent keys at the back may make way
		need := m.used + n - m.capacity
		for i := len(m.order) - 1; need > 0 && i >= 0 && m.spent[m.order[i]]; i-- {
			need -= m.size[m.order[i]]
		}
		if need > 0 {
			return false
		}
	}
	m.used += n - m.size[k]
	m.size[k] = n
	delete(m.spent, k)
	m.touch(k)
	m.peak = max(m.peak, min(m.used, m.capacity))
	for m.used > m.capacity {
		m.remove(len(m.order) - 1)
	}
	return true
}

// demote sends a resident key to the back, spent.
func (m *parentLRU) demote(k Key) {
	for i, o := range m.order {
		if o == k {
			m.order = append(append(m.order[:i], m.order[i+1:]...), k)
			m.spent[k] = true
		}
	}
}

func (m *parentLRU) dropTable(table uint64) {
	kept := m.order[:0]
	for _, k := range m.order {
		if k.Table == table {
			m.used -= m.size[k]
			delete(m.size, k)
			delete(m.spent, k)
			continue
		}
		kept = append(kept, k)
	}
	m.order = kept
}

// pattern is the byte every position of a block filled for (k, gen) holds;
// never the poison byte.
func pattern(k Key, gen int) byte { return byte((k.Table*31 + k.Offset*7 + uint64(gen)) % 200) }

func fill(p []byte, v byte) {
	for i := range p {
		p[i] = v
	}
}

func intact(p []byte, v byte) bool {
	for _, c := range p {
		if c != v {
			return false
		}
	}
	return true
}

func array(b *Block) *byte { return &b.buf[:1][0] }

// freeBlocks lists the blocks on f, every stack top to bottom.
func freeBlocks(f *freeList) []*Block {
	var out []*Block
	for _, c := range f.classes {
		for b := c.top; b != nil; b = b.next {
			out = append(out, b)
		}
	}
	return out
}

// TestStressModelAgainstParentLRU drives random Get / fill / adopting Put /
// Publish / Peek / Demote / DropTable / Release against the parent's
// algorithm: same hits, same residents in the same recency order (hence the
// same eviction victims) carrying the same spent marks, used within
// capacity — and the ownership invariants on top: a pinned block's bytes
// never change, no array is in two places at once, the free list stays
// within its bound and nothing on it is marked spent. To the model a Publish
// is a put that leaves no pin behind (a cold one gives way to a live
// victim), a Peek is a lookup that does not touch the order, and a Demote
// moves its block only if that block is the one resident under its key;
// none of the three moves the hit and miss counters. The bound is the
// high-water rule: the larger of freeListBytes and the room the residents
// leave below the most bytes ever resident, so that resident plus free
// bytes stay within that mark whenever the free list is above its floor.
// At 8 KiB the room never reaches the floor; at 96 KiB it does.
func TestStressModelAgainstParentLRU(t *testing.T) {
	recycle.Poison.Store(true)
	defer recycle.Poison.Store(false)
	for _, run := range []struct{ capacity, steps int }{{8 << 10, 20000}, {96 << 10, 10000}} {
		t.Run(fmt.Sprint(run.capacity), func(t *testing.T) { modelRun(t, run.capacity, run.steps) })
	}
}

func modelRun(t *testing.T, capacity, steps int) {
	rng := rand.New(rand.NewSource(1))
	c := New(capacity)
	m := &parentLRU{capacity: capacity, size: map[Key]int{}, spent: map[Key]bool{}}
	type pin struct {
		b    *Block
		want byte
	}
	var pins []pin
	var hits, misses uint64 // of Gets, the only lookups that count
	var demoted, refused, aboveFloor int
	offsets := max(24, capacity>>10) // three to ten times what fits
	randKey := func() Key { return Key{Table: uint64(rng.Intn(3)), Offset: uint64(rng.Intn(offsets))} }
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(128); {
		case op < 40:
			k := randKey()
			b, ok := c.Get(k)
			if ok != m.get(k) {
				t.Fatalf("step %d: Get(%v) hit = %v, model says %v", step, k, ok, !ok)
			}
			if ok {
				hits++
				pins = append(pins, pin{b, b.Data()[0]})
			} else {
				misses++
			}
		case op >= 83 && op < 98:
			// The merge's lookup: pinned like a hit, invisible otherwise.
			k := randKey()
			b, ok := c.Peek(k)
			if _, resident := m.size[k]; ok != resident {
				t.Fatalf("step %d: Peek(%v) found = %v, model says %v", step, k, ok, resident)
			}
			if ok {
				pins = append(pins, pin{b, b.Data()[0]})
			}
		case op >= 113:
			// The merge lets go of a block it still pins: resident, evicted
			// since, or replaced under its key by a later fill.
			if len(pins) == 0 {
				continue
			}
			b := pins[rng.Intn(len(pins))].b
			if c.index[b.key] == b {
				m.demote(b.key)
				demoted++
			}
			c.Demote(b)
		case op >= 98:
			// The writer's publish: the cache copies, the caller keeps its
			// slice and holds no pin.
			k, n, cold := randKey(), 900+rng.Intn(400), rng.Intn(2) == 0
			if rng.Intn(20) == 0 {
				n = capacity + 1 + rng.Intn(capacity)
			}
			v := make([]byte, n)
			fill(v, pattern(k, step))
			c.Publish(k, v, cold)
			admitted := m.put(k, n, cold)
			fill(v, 0xee) // the caller reuses its buffer
			if !admitted {
				if n <= capacity {
					refused++
				}
				break // whatever k held before stays, as the order check below sees
			}
			if b := c.index[k]; b == nil || b.refs.Load() != 1 || !intact(b.data, pattern(k, step)) {
				t.Fatalf("step %d: Publish(%v, %d B, cold=%v) left resident = %v", step, k, n, cold, b != nil)
			}
		case op < 75:
			// The reader's fill: a payload a few bytes into a recycled buffer.
			k, n := randKey(), 900+rng.Intn(400)
			b := c.Alloc(k, n+7)
			if len(b.Buf()) != n+7 {
				t.Fatalf("step %d: Alloc(%d) gave %d bytes", step, n+7, len(b.Buf()))
			}
			fill(b.Buf(), pattern(k, step))
			c.Add(b, b.Buf()[3:3+n])
			m.put(k, n, false)
			pins = append(pins, pin{b, pattern(k, step)})
		case op < 80:
			// An adopted slice, sometimes larger than the whole cache.
			k, n := randKey(), 1+rng.Intn(2*capacity)
			v := make([]byte, n)
			fill(v, pattern(k, step))
			b := c.Put(k, v)
			m.put(k, n, false)
			if len(b.Data()) != n {
				t.Fatalf("step %d: Put of %d bytes returned a %d-byte block", step, n, len(b.Data()))
			}
			pins = append(pins, pin{b, pattern(k, step)})
		default:
			table := uint64(rng.Intn(3))
			c.DropTable(table)
			m.dropTable(table)
		}
		// Readers hold a handful of pins at a time, released in any order.
		for len(pins) > rng.Intn(8) {
			i := rng.Intn(len(pins))
			pins[i].b.Release()
			pins[i] = pins[len(pins)-1]
			pins = pins[:len(pins)-1]
		}

		// Same decisions as the parent.
		i := 0
		for b := c.root.next; b != &c.root; b = b.next {
			if i >= len(m.order) || b.key != m.order[i] || len(b.data) != m.size[b.key] || b.spent != m.spent[b.key] {
				t.Fatalf("step %d: resident #%d is %v (%d B, spent=%v), model order %v, spent %v", step, i, b.key, len(b.data), b.spent, m.order, m.spent)
			}
			i++
		}
		if i != len(m.order) || len(c.index) != len(m.order) {
			t.Fatalf("step %d: %d resident (%d indexed), model has %d", step, i, len(c.index), len(m.order))
		}
		checkTableLists(t, c)
		if c.used != m.used || c.used > capacity {
			t.Fatalf("step %d: used = %d, model %d, capacity %d", step, c.used, m.used, capacity)
		}
		// Ownership: every array is resident, pinned-only or free — one of them.
		where := map[*byte]string{}
		claim := func(b *Block, place string) {
			if prev, dup := where[array(b)]; dup {
				t.Fatalf("step %d: array of %v is both %s and %s", step, b.key, prev, place)
			}
			where[array(b)] = place
		}
		for _, b := range c.index {
			claim(b, "resident")
		}
		free := 0
		for _, b := range freeBlocks(&c.free) {
			claim(b, "free")
			free += cap(b.buf)
			if b.refs.Load() != 0 || b.spent {
				t.Fatalf("step %d: free block has %d refs, spent=%v", step, b.refs.Load(), b.spent)
			}
		}
		if peak := int(c.mark.peak.Load()); peak != m.peak || c.mark.used.Load() != int64(c.used) || c.mark.free.Load() != int64(c.free.bytes) {
			t.Fatalf("step %d: high-water mark = %d, model %d (mark: %d B used, %d B free; stripe: %d, %d)",
				step, peak, m.peak, c.mark.used.Load(), c.mark.free.Load(), c.used, c.free.bytes)
		}
		bound := max(freeListBytes, m.peak-m.used)
		if free != c.free.bytes || free > bound {
			t.Fatalf("step %d: free list holds %d B, accounts %d, bound %d (used %d)", step, free, c.free.bytes, bound, m.used)
		}
		if free > freeListBytes {
			aboveFloor++
		}
		seen := map[*Block]bool{}
		for _, p := range pins {
			if where[array(p.b)] == "free" {
				t.Fatalf("step %d: pinned block %v is on the free list", step, p.b.key)
			}
			if !intact(p.b.Data(), p.want) {
				t.Fatalf("step %d: pinned block %v changed under its pin", step, p.b.key)
			}
			if c.index[p.b.key] != p.b && !seen[p.b] {
				seen[p.b] = true
				claim(p.b, "pinned-only")
			}
		}
	}
	if c.hits != hits || c.misses != misses {
		t.Fatalf("counters say %d hits, %d misses; Gets saw %d and %d", c.hits, c.misses, hits, misses)
	}
	if c.hits == 0 || c.misses == 0 || len(freeBlocks(&c.free)) == 0 || demoted < 100 || refused < 25 {
		t.Fatalf("run exercised nothing: %d hits, %d misses, %d free, %d demoted, %d cold publishes refused", c.hits, c.misses, len(freeBlocks(&c.free)), demoted, refused)
	}
	if capacity > 2*freeListBytes && aboveFloor < 100 {
		t.Fatalf("the free list rose above its floor at only %d steps", aboveFloor)
	}
	t.Logf("free list above its floor at %d steps", aboveFloor)
}

// checkTableLists fails unless the stripe's per-table lists hold exactly its
// resident blocks, each under its own table, with the links agreeing.
func checkTableLists(t *testing.T, c *LRU) {
	t.Helper()
	n := 0
	for table, b := range c.tables {
		if b == nil || b.tprev != nil {
			t.Fatalf("table %d: list head %v has a predecessor or is nil", table, b)
		}
		for ; b != nil; b = b.tnext {
			if b.key.Table != table || c.index[b.key] != b || (b.tnext != nil && b.tnext.tprev != b) {
				t.Fatalf("table %d: listed block %v is not its resident block, or its links disagree", table, b.key)
			}
			n++
		}
	}
	if n != len(c.index) {
		t.Fatalf("the table lists hold %d blocks, %d are resident", n, len(c.index))
	}
}

// TestRetiringATableTouchesOnlyItsBlocks: with many tables resident and two
// of them spent by a merge, Unspend and DropTable of one table change that
// table's blocks alone — every other table's stay resident, and stay spent
// or live as they were — and each walks the table's own list, which leaves
// the lists matching the residents.
func TestRetiringATableTouchesOnlyItsBlocks(t *testing.T) {
	const tables, blocks = 40, 6
	c := New(tables * blocks * 100)
	for table := uint64(0); table < tables; table++ {
		for off := uint64(0); off < blocks; off++ {
			c.Publish(Key{Table: table, Offset: off}, make([]byte, 100), false)
		}
	}
	spend := func(table uint64) {
		for off := uint64(0); off < blocks; off++ {
			b, _ := c.Peek(Key{Table: table, Offset: off})
			c.Demote(b)
			b.Release()
		}
	}
	spend(7)
	spend(23)
	gone := map[uint64]bool{}
	check := func(what string, spent map[uint64]bool) {
		t.Helper()
		checkTableLists(t, c)
		for table := uint64(0); table < tables; table++ {
			for off := uint64(0); off < blocks; off++ {
				b := c.index[Key{Table: table, Offset: off}]
				if (b != nil) == gone[table] || b != nil && b.spent != spent[table] {
					t.Fatalf("%s: block %d of table %d resident=%v spent=%v", what, off, table, b != nil, b != nil && b.spent)
				}
			}
		}
	}
	check("spent", map[uint64]bool{7: true, 23: true})
	c.Unspend(23)
	check("after Unspend", map[uint64]bool{7: true})
	c.DropTable(7)
	gone[7] = true
	check("after DropTable of a spent table", nil)
	c.DropTable(30)
	gone[30] = true
	check("after DropTable of a live one", nil)
	if _, ok := c.tables[30]; ok || len(c.tables) != tables-2 {
		t.Fatalf("table lists left: %d, table 30 listed: %v", len(c.tables), ok)
	}
}

// order lists the resident keys' offsets from most to least recent, a spent
// block's negated (offsets in these tests start at 1).
func order(c *LRU) []int {
	var out []int
	for b := c.root.next; b != &c.root; b = b.next {
		o := int(b.key.Offset)
		if b.spent {
			o = -o
		}
		out = append(out, o)
	}
	return out
}

// TestDemoteAndSpent: Demote sends the resident block it is handed to the
// cold end, spent — evicted before anything live, readable through its pin
// and by lookups meanwhile, and back at the front unspent on the next Get. A
// block that is not the resident one under its key is left alone and moves
// nothing: one never published, one evicted, one replaced. A cold publish
// happens where free room and spent blocks make way and not at all where a
// live block would have to;
// DropTable finds spent blocks; no recycled array carries the mark.
func TestDemoteAndSpent(t *testing.T) {
	recycle.Poison.Store(true)
	defer recycle.Poison.Store(false)
	c := New(4000)
	key := func(i int) Key { return Key{Table: 1, Offset: uint64(i)} }
	put := func(i int) *Block {
		b := c.Alloc(key(i), 1000)
		fill(b.Buf(), byte(i))
		c.Add(b, b.Buf())
		return b
	}
	expect := func(when string, want ...int) {
		t.Helper()
		if got := order(c); !slices.Equal(got, want) {
			t.Fatalf("%s: order %v, want %v", when, got, want)
		}
	}
	b1, b2 := put(1), put(2)
	put(3).Release()
	put(4).Release()
	expect("filled", 4, 3, 2, 1)

	c.Demote(b2)
	expect("demoted 2", 4, 3, 1, -2)
	c.Demote(b1)
	expect("demoted 1", 4, 3, -2, -1)
	if p, ok := c.Peek(key(1)); !ok || p != b1 {
		t.Fatal("a spent block is not resident to Peek")
	} else {
		p.Release()
	}
	expect("peeked at a spent block", 4, 3, -2, -1)
	if g, ok := c.Get(key(2)); !ok || g != b2 {
		t.Fatal("a spent block is not resident to Get")
	} else {
		g.Release()
	}
	expect("Get took 2 back", 2, 4, 3, -1)

	// Not the cache's to move: unpublished, replaced under its key, evicted.
	stray := c.Alloc(key(3), 1000)
	c.Demote(stray)
	c.Demote(Uncached.Alloc(key(4), 1000))
	expect("demoted strangers", 2, 4, 3, -1)
	fill(stray.Buf(), 3)
	c.Add(stray, stray.Buf()) // replaces 3; the old block is gone
	old2 := b2
	b2 = put(2) // replaces the block b2 pinned
	c.Demote(old2)
	expect("demoted a replaced block", 2, 3, 4, -1)
	if !intact(old2.Data(), 2) || !intact(b1.Data(), 1) {
		t.Fatal("a pinned block changed")
	}
	old2.Release()
	stray.Release()

	// A live fill evicts the spent block first; its pin keeps it readable.
	put(5).Release()
	expect("fill against a spent cold end", 5, 2, 3, 4)
	if b1.spent || !intact(b1.Data(), 1) {
		t.Fatalf("evicted block: spent=%v, intact=%v", b1.spent, intact(b1.Data(), 1))
	}
	c.Demote(b1)
	expect("demoted an evicted block", 5, 2, 3, 4)
	b1.Release()

	// Cold publishes: refused by a live cold end, admitted over a spent one
	// and into free room, and never at the price of a live block.
	page := make([]byte, 1000)
	_, _, used0 := c.Stats()
	c.Publish(key(6), page, true)
	expect("cold publish into a full live cache", 5, 2, 3, 4)
	c.Demote(b2)
	c.Publish(key(6), page, true)
	expect("cold publish over a spent block", 6, 5, 3, 4)
	b2.Release()
	g, _ := c.Get(key(4))
	c.Demote(g)
	g.Release()
	c.Publish(key(7), make([]byte, 1500), true)
	expect("cold publish needing a spent and a live block's room", 6, 5, 3, -4)
	c.Publish(key(8), page[:500], true)
	expect("cold publish over a larger spent block", 8, 6, 5, 3)
	c.Publish(key(9), page[:500], true)
	expect("cold publish into free room", 9, 8, 6, 5, 3)
	c.Publish(key(10), page[:1], true)
	expect("cold publish into a full live cache again", 9, 8, 6, 5, 3)
	if _, _, used := c.Stats(); used != used0 {
		t.Fatalf("used = %d, want %d", used, used0)
	}

	// DropTable finds spent blocks wherever they are.
	g, _ = c.Get(key(5))
	c.Demote(g)
	g.Release()
	expect("before DropTable", 9, 8, 6, 3, -5)
	c.DropTable(1)
	if c.Len() != 0 || len(freeBlocks(&c.free)) == 0 {
		t.Fatalf("after DropTable: %d resident, %d free", c.Len(), len(freeBlocks(&c.free)))
	}
	for _, f := range freeBlocks(&c.free) {
		if f.spent {
			t.Fatal("a free block is marked spent")
		}
	}
	if hits, misses, _ := c.Stats(); hits != 3 || misses != 0 {
		t.Fatalf("%d hits, %d misses; only the three Gets count", hits, misses)
	}
}

// TestOversizedPutStaysUsable: a value no stripe can hold is not cached,
// but the block Put returns is pinned and readable all the same.
func TestOversizedPutStaysUsable(t *testing.T) {
	c := NewSharded(4<<10, 1)
	v := make([]byte, 8<<10)
	fill(v, 7)
	k := Key{Table: 1, Offset: 0}
	b := c.Put(k, v)
	if c.Len() != 0 {
		t.Fatal("oversized value was admitted")
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("oversized value is resident")
	}
	for i := 0; i < 100; i++ {
		c.Put(Key{Table: 2, Offset: uint64(i)}, make([]byte, 1<<10)).Release()
	}
	if len(b.Data()) != len(v) || !intact(b.Data(), 7) {
		t.Fatal("oversized block not usable through its pin")
	}
	b.Release()
}

// TestUnreleasedPinNeverRecycled: forgetting Release costs reuse, never
// correctness — the array of a block whose pin is dropped on the floor is
// never handed to another fill, however long ago it was evicted.
func TestUnreleasedPinNeverRecycled(t *testing.T) {
	recycle.Poison.Store(true)
	defer recycle.Poison.Store(false)
	c := New(16 << 10)
	k := Key{Table: 1, Offset: 0}
	leaked := c.Alloc(k, 4100)
	fill(leaked.Buf(), 9)
	c.Add(leaked, leaked.Buf()[3:4099])
	got, ok := c.Get(k) // a second pin, also never released
	if !ok || got != leaked {
		t.Fatal("fill not resident")
	}
	for i := 1; i < 1000; i++ {
		b := c.Alloc(Key{Table: 1, Offset: uint64(i)}, 4100)
		if array(b) == array(leaked) {
			t.Fatalf("fill %d was handed the array of a pinned block", i)
		}
		fill(b.Buf(), 1)
		c.Add(b, b.Buf()[3:4099])
		b.Release()
	}
	if _, ok := c.Get(k); ok {
		t.Fatal("block was never evicted; the test proved nothing")
	}
	if !intact(leaked.Data(), 9) {
		t.Fatal("evicted block changed under its pin")
	}
}

// TestAllocDroppedTableFundsItsSuccessor is a merge's cycle: an output table is
// published into room the stripe has, the inputs are dropped, and the next
// output is published into the room they left. The dropped arrays wait on
// the free list, so from the second cycle on a table's worth of publishes
// allocates no array — in a stripe that has filled and in one that never
// has, whose high-water mark stands in for capacity — while resident plus
// free bytes stay within that mark.
func TestAllocDroppedTableFundsItsSuccessor(t *testing.T) {
	const blocks, size = 48, 4096 // 192 KiB a table: six times the floor
	page := make([]byte, size)
	publish := func(c *LRU, table uint64) {
		for i := 0; i < blocks; i++ {
			c.Publish(Key{Table: table, Offset: uint64(i)}, page, false)
		}
	}
	cycle := func(c *LRU) (arrays float64) {
		table := uint64(100)
		return testing.AllocsPerRun(20, func() {
			c.DropTable(table)
			table++
			publish(c, table)
		}) / 2 // a fresh array is two objects: the Block and its array
	}

	filled := New(1 << 20)
	publish(filled, 1)
	for i := 2; int(filled.mark.peak.Load()) < filled.capacity; i++ {
		publish(filled, uint64(i)) // fill it: tables 1 and up until it is full
	}
	filled.DropTable(1) // room for the cycle's table
	if got := cycle(filled); got != 0 {
		t.Errorf("filled stripe: republishing a dropped table's bytes allocates %v arrays, want 0", got)
	}
	if _, _, used := filled.Stats(); used+filled.free.bytes > filled.capacity {
		t.Errorf("filled stripe: %d B resident and %d B free exceed the %d B budget", used, filled.free.bytes, filled.capacity)
	}

	growing := New(1 << 20)
	publish(growing, 1)
	if got := cycle(growing); got != 0 {
		t.Errorf("never-filled stripe: republishing a dropped table's bytes allocates %v arrays, want 0", got)
	}
	if _, _, used := growing.Stats(); int(growing.mark.peak.Load()) >= growing.capacity || used+growing.free.bytes > int(growing.mark.peak.Load()) {
		t.Errorf("never-filled stripe: %d B resident and %d B free exceed its %d B high-water mark (capacity %d)",
			used, growing.free.bytes, growing.mark.peak.Load(), growing.capacity)
	}
}

// TestAllocStripesShareOneMark: the high-water rule is cache-wide. A table
// dropped from a striped cache that has never filled funds its successor in
// every stripe, and the stripes' free arrays together stay within the room
// the residents leave below the cache's one mark, plus a floor per stripe.
func TestAllocStripesShareOneMark(t *testing.T) {
	const blocks, size = 256, 2048
	c := NewSharded(4<<20, 4)
	page := make([]byte, size)
	table := uint64(1)
	publish := func() {
		for i := 0; i < blocks; i++ {
			c.Publish(Key{Table: table, Offset: uint64(i * size)}, page, false)
		}
	}
	publish()
	arrays := testing.AllocsPerRun(10, func() {
		c.DropTable(table)
		table++
		publish()
	}) / 2
	// Arrays do not move between stripes, so where the two tables' blocks
	// hash unevenly a stripe allocates a few while another drops some.
	if arrays > blocks/8 {
		t.Errorf("republishing a dropped table's bytes allocates %v arrays of %d", arrays, blocks)
	}
	m := c.shards[0].mark
	used, free := 0, 0
	for _, sh := range c.shards {
		if sh.mark != m {
			t.Fatal("stripes keep marks of their own")
		}
		used += sh.used
		free += sh.free.bytes
	}
	if peak := int(m.peak.Load()); peak >= 4<<20 || used+free > peak+len(c.shards)*freeListBytes {
		t.Errorf("%d B resident and %d B free across the stripes, high-water mark %d B", used, free, peak)
	}
}

// TestFreeArraysYieldAcrossStripes: the residents of one stripe growing
// into the room takes free arrays from every stripe. A table whose blocks
// all live in one stripe is dropped, leaving that stripe's free list the
// whole room; the next table's blocks all hash to the other stripes, and as
// they come in the first stripe gives its arrays up, so resident plus free
// bytes never exceed the mark by more than a floor per stripe.
func TestFreeArraysYieldAcrossStripes(t *testing.T) {
	const blocks, size = 256, 2048 // 512 KiB a table: half a stripe
	c := NewSharded(4<<20, 4)
	page := make([]byte, size)
	publish := func(table uint64, home bool) {
		for off, n := uint64(0), 0; n < blocks; off += size {
			if k := (Key{Table: table, Offset: off}); (c.shardFor(k) == c.shards[0]) == home {
				c.Publish(k, page, false)
				n++
			}
		}
	}
	publish(1, true)
	c.DropTable(1)
	if free := c.shards[0].free.bytes; free < blocks*size/2 {
		t.Fatalf("the dropped table left %d B free in its stripe, want most of %d", free, blocks*size)
	}
	m := c.shards[0].mark
	for table := uint64(2); table < 4; table++ {
		publish(table, false)
		used, free := 0, 0
		for _, sh := range c.shards {
			used += sh.used
			free += sh.free.bytes
		}
		if peak := int(m.peak.Load()); used+free > peak+len(c.shards)*freeListBytes {
			t.Errorf("table %d: %d B resident and %d B free across the stripes, high-water mark %d B", table, used, free, peak)
		}
	}
}

// TestAllocUnaskedSizesMakeWay: a free list full of arrays of a size no miss
// asks for — the short last blocks of flushed tables — gives them up for the
// arrays misses do ask for, so those misses still recycle.
func TestAllocUnaskedSizesMakeWay(t *testing.T) {
	c := New(256 << 10)
	for i := 0; i < 64; i++ { // small blocks, evicted by the fills below
		b := c.Alloc(Key{Table: 2, Offset: uint64(i)}, 1000)
		c.Add(b, b.Buf())
		b.Release()
	}
	i := 0
	fillOne := func() {
		b := c.Alloc(Key{Table: 1, Offset: uint64(i)}, 4100)
		c.Add(b, b.Buf()[3:4096])
		b.Release()
		i++
	}
	for i < 200 {
		fillOne()
	}
	if n := testing.AllocsPerRun(1000, fillOne); n != 0 {
		t.Errorf("fills beside a free list of unasked sizes allocate %v objects, want 0", n)
	}
}

// TestSteadyStateFillAllocatesNothing: once the free list has an array,
// a fill that evicts reuses struct and array both.
func TestSteadyStateFillAllocatesNothing(t *testing.T) {
	c := New(64 << 10)
	i := 0
	fillOne := func() {
		b := c.Alloc(Key{Table: 1, Offset: uint64(i)}, 4100+i%200)
		c.Add(b, b.Buf()[3:4096])
		b.Release()
		i++
	}
	for i < 100 {
		fillOne()
	}
	if n := testing.AllocsPerRun(1000, fillOne); n != 0 {
		t.Errorf("steady-state fill allocates %v objects, want 0", n)
	}
}

// TestStressPoison runs readers that pin (Get or Peek), check, sometimes
// demote, and release blocks against fills, publishes warm and cold,
// evictions and DropTable on a cache a few blocks large, with freed arrays
// poisoned: a block recycled while still pinned, or read after its release,
// shows the poison (or another key's pattern) instead of its own. Run under
// -race.
func TestStressPoison(t *testing.T) {
	recycle.Poison.Store(true)
	defer recycle.Poison.Store(false)
	c := NewSharded(12<<10, 1) // three blocks
	const (
		workers = 6
		ops     = 4000
		keys    = 16
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var held []*Block
			scratch := make([]byte, 0, 4300)
			check := func(b *Block) {
				if d := b.Data(); len(d) == 0 || !intact(d, pattern(b.key, 0)) {
					t.Errorf("block %v: payload is not its own (first byte %#x)", b.key, d[0])
				}
			}
			for i := 0; i < ops; i++ {
				k := Key{Table: uint64(rng.Intn(2)), Offset: uint64(rng.Intn(keys))}
				if i%5 == 0 {
					// A writer publishes from a buffer it reuses at once.
					scratch = scratch[:4000+rng.Intn(300)]
					fill(scratch, pattern(k, 0))
					c.Publish(k, scratch, i%10 == 0)
					fill(scratch, 0xee)
				}
				lookup := c.Get
				if i%3 == 0 {
					lookup = c.Peek
				}
				b, ok := lookup(k)
				if !ok {
					n := 4000 + rng.Intn(300)
					b = c.Alloc(k, n+7)
					fill(b.Buf(), pattern(k, 0))
					c.Add(b, b.Buf()[3:3+n])
				}
				check(b)
				held = append(held, b)
				if i%97 == 0 {
					c.DropTable(k.Table)
				}
				if len(held) > 3 {
					runtime.Gosched()
					for _, h := range held {
						check(h)
						h.Release()
					}
					held = held[:0]
				}
			}
			for _, h := range held {
				h.Release()
			}
		}(w)
	}
	wg.Wait()
	if _, _, used := c.Stats(); used > 12<<10 {
		t.Errorf("used %d exceeds capacity", used)
	}
}
