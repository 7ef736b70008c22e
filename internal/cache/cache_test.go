package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestGetPut(t *testing.T) {
	c := New(100)
	k := Key{Table: 1, Offset: 0}
	if _, ok := c.Get(k); ok {
		t.Errorf("empty cache hit")
	}
	c.Put(k, []byte("hello"))
	v, ok := c.Get(k)
	if !ok || string(v.Data()) != "hello" {
		t.Errorf("Get = %v, %v", v, ok)
	}
	hits, misses, used := c.Stats()
	if hits != 1 || misses != 1 || used != 5 {
		t.Errorf("stats = %d/%d/%d", hits, misses, used)
	}
}

func TestEvictionByBytes(t *testing.T) {
	c := New(30)
	for i := 0; i < 5; i++ {
		c.Put(Key{Table: 1, Offset: uint64(i)}, make([]byte, 10))
	}
	if c.Len() != 3 {
		t.Errorf("Len = %d, want 3 (30 bytes / 10)", c.Len())
	}
	// Oldest entries evicted.
	if _, ok := c.Get(Key{Table: 1, Offset: 0}); ok {
		t.Errorf("oldest entry survived")
	}
	if _, ok := c.Get(Key{Table: 1, Offset: 4}); !ok {
		t.Errorf("newest entry evicted")
	}
}

func TestLRUOrderOnAccess(t *testing.T) {
	c := New(20)
	a, b, d := Key{1, 0}, Key{1, 1}, Key{1, 2}
	c.Put(a, make([]byte, 10))
	c.Put(b, make([]byte, 10))
	c.Get(a) // refresh a; b is now oldest
	c.Put(d, make([]byte, 10))
	if _, ok := c.Get(b); ok {
		t.Errorf("b should have been evicted")
	}
	if _, ok := c.Get(a); !ok {
		t.Errorf("refreshed a was evicted")
	}
}

func TestOversizedValueIgnored(t *testing.T) {
	c := New(10)
	c.Put(Key{1, 0}, make([]byte, 11))
	if c.Len() != 0 {
		t.Errorf("oversized value cached")
	}
}

func TestPutReplaceAdjustsBytes(t *testing.T) {
	c := New(100)
	k := Key{1, 0}
	c.Put(k, make([]byte, 50))
	c.Put(k, make([]byte, 20))
	if _, _, used := c.Stats(); used != 20 {
		t.Errorf("used = %d, want 20", used)
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
}

func TestDropTable(t *testing.T) {
	c := New(1000)
	for i := 0; i < 5; i++ {
		c.Put(Key{Table: 1, Offset: uint64(i)}, make([]byte, 10))
		c.Put(Key{Table: 2, Offset: uint64(i)}, make([]byte, 10))
	}
	c.DropTable(1)
	if c.Len() != 5 {
		t.Errorf("Len after drop = %d, want 5", c.Len())
	}
	if _, ok := c.Get(Key{Table: 1, Offset: 0}); ok {
		t.Errorf("dropped table's block still cached")
	}
	if _, ok := c.Get(Key{Table: 2, Offset: 0}); !ok {
		t.Errorf("other table's block lost")
	}
	if _, _, used := c.Stats(); used != 50 {
		t.Errorf("used = %d, want 50", used)
	}
}

func TestZeroCapacityClamped(t *testing.T) {
	c := New(0)
	c.Put(Key{1, 0}, []byte{1})
	if c.Len() != 1 {
		t.Errorf("capacity clamp failed")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(1 << 16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				k := Key{Table: uint64(w % 4), Offset: uint64(i % 64)}
				if i%3 == 0 {
					c.Put(k, []byte(fmt.Sprint(i)))
				} else {
					c.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
}

func BenchmarkGetHit(b *testing.B) {
	c := New(1 << 20)
	k := Key{1, 42}
	c.Put(k, make([]byte, 4096))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(k); !ok {
			b.Fatal("miss")
		}
	}
}

// BenchmarkFillEvict is the steady-state miss path: every fill evicts one
// block and reuses the array (and struct) the previous eviction freed.
func BenchmarkFillEvict(b *testing.B) {
	c := New(1 << 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blk := c.Alloc(Key{Table: 1, Offset: uint64(i)}, 4100)
		c.Add(blk, blk.Buf()[3:4096])
		blk.Release()
	}
}

func TestShardedGetPut(t *testing.T) {
	c := NewSharded(1<<20, 8)
	if len(c.shards) != 8 {
		t.Fatalf("shard count = %d, want 8", len(c.shards))
	}
	for i := 0; i < 200; i++ {
		c.Put(Key{Table: uint64(i % 5), Offset: uint64(i * 4096)}, []byte(fmt.Sprintf("block-%d", i)))
	}
	for i := 0; i < 200; i++ {
		v, ok := c.Get(Key{Table: uint64(i % 5), Offset: uint64(i * 4096)})
		if !ok || string(v.Data()) != fmt.Sprintf("block-%d", i) {
			t.Fatalf("Get(%d) = %v, %v", i, v, ok)
		}
	}
	hits, misses, used := c.Stats()
	if hits != 200 || misses != 0 {
		t.Errorf("stats = %d hits / %d misses, want 200/0", hits, misses)
	}
	if used == 0 || c.Len() != 200 {
		t.Errorf("used=%d len=%d", used, c.Len())
	}
}

func TestShardedRoundsUpToPowerOfTwo(t *testing.T) {
	if n := len(NewSharded(1<<20, 5).shards); n != 8 {
		t.Errorf("NewSharded(1MiB, 5) has %d shards, want 8", n)
	}
	if n := len(NewSharded(8<<20, 0).shards); n != DefaultShards {
		t.Errorf("NewSharded(8MiB, 0) has %d shards, want %d", n, DefaultShards)
	}
}

// TestShardedClampsTinyCapacity: striping must not make blocks that a
// single LRU of the same budget would cache uncacheable — stripe count
// shrinks so each stripe keeps at least minStripeBytes of admission room.
func TestShardedClampsTinyCapacity(t *testing.T) {
	c := NewSharded(256<<10, 0) // a 16-shard store's slice of a small budget
	if per := 256 << 10 / len(c.shards); per < minStripeBytes {
		t.Fatalf("stripe capacity %d below the %d admission floor (%d stripes)",
			per, minStripeBytes, len(c.shards))
	}
	// A 64 KiB block (a large-value data block) must be admitted.
	big := make([]byte, 64<<10)
	c.Put(Key{Table: 1, Offset: 0}, big)
	if _, ok := c.Get(Key{Table: 1, Offset: 0}); !ok {
		t.Error("64 KiB block refused by a 256 KiB cache: striping broke admission")
	}
}

func TestShardedCapacityBound(t *testing.T) {
	const capacity = 16 << 10
	c := NewSharded(capacity, 4)
	for i := 0; i < 1000; i++ {
		c.Put(Key{Table: 1, Offset: uint64(i)}, make([]byte, 512))
	}
	if _, _, used := c.Stats(); used > capacity {
		t.Errorf("used %d exceeds total capacity %d", used, capacity)
	}
}

func TestShardedDropTable(t *testing.T) {
	c := NewSharded(1<<20, 4)
	for i := 0; i < 100; i++ {
		c.Put(Key{Table: 1, Offset: uint64(i)}, []byte("a"))
		c.Put(Key{Table: 2, Offset: uint64(i)}, []byte("b"))
	}
	c.DropTable(1)
	for i := 0; i < 100; i++ {
		if _, ok := c.Get(Key{Table: 1, Offset: uint64(i)}); ok {
			t.Fatalf("dropped table still cached at offset %d", i)
		}
		if _, ok := c.Get(Key{Table: 2, Offset: uint64(i)}); !ok {
			t.Fatalf("unrelated table evicted at offset %d", i)
		}
	}
}

// TestShardedSpreadAndBalance: block-aligned offsets of a handful of
// tables — the worst case for naive modulo striping — must spread across
// shards, and Balance must report the skew honestly.
func TestShardedSpreadAndBalance(t *testing.T) {
	c := NewSharded(1<<20, 8)
	if b := c.Balance(); b != 0 {
		t.Errorf("empty cache Balance = %v, want 0", b)
	}
	for i := 0; i < 512; i++ {
		c.Put(Key{Table: uint64(i % 4), Offset: uint64(i) * 4096}, make([]byte, 64))
	}
	touched := 0
	for _, sh := range c.shards {
		if sh.Len() > 0 {
			touched++
		}
	}
	if touched < len(c.shards)/2 {
		t.Errorf("only %d/%d shards used: block-key hash is not spreading", touched, len(c.shards))
	}
	sumMiss := uint64(0)
	for _, sh := range c.shards {
		_, m, _ := sh.Stats()
		sumMiss += m
	}
	if _, misses, _ := c.Stats(); misses != sumMiss {
		t.Errorf("per-shard miss sum %d != total %d", sumMiss, misses)
	}
	if b := c.Balance(); b < 1 || b > 8 {
		t.Errorf("Balance = %v, want within [1, shard count]", b)
	}
}

func TestShardedConcurrent(t *testing.T) {
	c := NewSharded(64<<10, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := Key{Table: uint64(g), Offset: uint64(i % 64 * 4096)}
				if i%3 == 0 {
					c.Put(k, make([]byte, 128))
				} else {
					c.Get(k)
				}
			}
		}(g)
	}
	wg.Wait()
}
