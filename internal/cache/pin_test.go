package cache

import (
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// parentLRU is the algorithm this package had before blocks were pinned:
// a map, a recency order and a byte budget. The model test holds the real
// cache to its decisions.
type parentLRU struct {
	capacity, used int
	order          []Key // front = most recent
	size           map[Key]int
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
	return true
}

func (m *parentLRU) put(k Key, n int) {
	if n > m.capacity {
		return
	}
	m.used += n - m.size[k]
	m.size[k] = n
	m.touch(k)
	for m.used > m.capacity {
		victim := m.order[len(m.order)-1]
		m.order = m.order[:len(m.order)-1]
		m.used -= m.size[victim]
		delete(m.size, victim)
	}
}

func (m *parentLRU) dropTable(table uint64) {
	kept := m.order[:0]
	for _, k := range m.order {
		if k.Table == table {
			m.used -= m.size[k]
			delete(m.size, k)
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

// TestModelAgainstParentLRU drives random Get / fill / adopting Put /
// Publish / Peek / DropTable / Release against the parent's algorithm: same
// hits, same residents in the same recency order (hence the same eviction
// victims), used within capacity — and the ownership invariants on top: a
// pinned block's bytes never change, no array is in two places at once, and
// the free list stays within its bound. To the model a Publish is a put
// that leaves no pin behind, and a Peek is a lookup that does not touch the
// order; neither moves the hit and miss counters.
func TestModelAgainstParentLRU(t *testing.T) {
	PoisonFreed.Store(true)
	defer PoisonFreed.Store(false)
	const capacity = 8 << 10
	rng := rand.New(rand.NewSource(1))
	c := New(capacity)
	m := &parentLRU{capacity: capacity, size: map[Key]int{}}
	type pin struct {
		b    *Block
		want byte
	}
	var pins []pin
	var hits, misses uint64 // of Gets, the only lookups that count
	randKey := func() Key { return Key{Table: uint64(rng.Intn(3)), Offset: uint64(rng.Intn(24))} }
	for step := 0; step < 20000; step++ {
		switch op := rng.Intn(113); {
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
		case op >= 98:
			// The writer's publish: the cache copies, the caller keeps its
			// slice and holds no pin.
			k, n := randKey(), 900+rng.Intn(400)
			if rng.Intn(20) == 0 {
				n = capacity + 1 + rng.Intn(capacity)
			}
			v := make([]byte, n)
			fill(v, pattern(k, step))
			c.Publish(k, v)
			m.put(k, n)
			fill(v, 0xee) // the caller reuses its buffer
			if b := c.index[k]; n <= capacity && (b == nil || b.refs.Load() != 1 || !intact(b.data, pattern(k, step))) {
				t.Fatalf("step %d: Publish(%v, %d B) left %v resident", step, k, n, b)
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
			m.put(k, n)
			pins = append(pins, pin{b, pattern(k, step)})
		case op < 80:
			// An adopted slice, sometimes larger than the whole cache.
			k, n := randKey(), 1+rng.Intn(2*capacity)
			v := make([]byte, n)
			fill(v, pattern(k, step))
			b := c.Put(k, v)
			m.put(k, n)
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
			if i >= len(m.order) || b.key != m.order[i] || len(b.data) != m.size[b.key] {
				t.Fatalf("step %d: resident #%d is %v (%d B), model order %v", step, i, b.key, len(b.data), m.order)
			}
			i++
		}
		if i != len(m.order) || len(c.index) != len(m.order) {
			t.Fatalf("step %d: %d resident (%d indexed), model has %d", step, i, len(c.index), len(m.order))
		}
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
		for _, b := range c.free.blocks {
			claim(b, "free")
			free += cap(b.buf)
			if b.refs.Load() != 0 {
				t.Fatalf("step %d: free block has %d refs", step, b.refs.Load())
			}
		}
		if free != c.free.bytes || free > freeListBytes {
			t.Fatalf("step %d: free list holds %d B, accounts %d, bound %d", step, free, c.free.bytes, freeListBytes)
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
	if c.hits == 0 || c.misses == 0 || len(c.free.blocks) == 0 {
		t.Fatalf("run exercised nothing: %d hits, %d misses, %d free", c.hits, c.misses, len(c.free.blocks))
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
	PoisonFreed.Store(true)
	defer PoisonFreed.Store(false)
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

// TestPoisonStress runs readers that pin (Get or Peek), check and release
// blocks against fills, publishes, evictions and DropTable on a cache a few
// blocks large, with freed arrays poisoned: a block recycled while still pinned, or read after its
// release, shows the poison (or another key's pattern) instead of its own.
// Run under -race.
func TestPoisonStress(t *testing.T) {
	PoisonFreed.Store(true)
	defer PoisonFreed.Store(false)
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
					c.Publish(k, scratch)
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
