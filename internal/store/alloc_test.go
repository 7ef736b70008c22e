package store

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/lsm"
)

// mallocsPerRun reports the mean number of heap objects one call of fn
// allocates, without testing.AllocsPerRun's rounding down.
func mallocsPerRun(runs int, fn func()) float64 {
	fn() // warm up lazily built state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs)
}

// TestAllocPutOneObject is lsm's test of the same name through the
// store, at one shard and at four: routing a put costs nothing, and a
// 16-op batch split across four shards — three sub-batches committed on
// goroutines of their own — still allocates only its 16 versions.
func TestAllocPutOneObject(t *testing.T) {
	measureRecycling(t)
	ctx := context.Background()
	const runs = 10000
	val := bytes.Repeat([]byte("v"), 100)
	keys := make([][]byte, 10*runs)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%016d", i*7919%len(keys)))
	}
	for _, shards := range []int{1, 4} {
		s := openStore(t, shards, lsm.Options{MemtableBytes: 64 << 20})
		next := 0
		put := func(key []byte) {
			if err := s.PutContext(ctx, key, val); err != nil {
				t.Fatal(err)
			}
		}
		newKey := mallocsPerRun(runs, func() { put(keys[next]); next++ })
		overwrite := testing.AllocsPerRun(runs, func() { put(keys[0]) })
		var b lsm.WriteBatch
		batch := mallocsPerRun(runs/10, func() {
			b.Reset()
			for i := 0; i < 16; i++ {
				b.Put(keys[next], val)
				next++
			}
			if err := s.WriteContext(ctx, &b); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d shards: PutContext %.3f objects for a new key, %.0f for an overwrite; 16-op WriteContext %.3f", shards, newKey, overwrite, batch)
		if newKey > 1.02 {
			t.Errorf("%d shards: PutContext of a new key allocates %.3f objects, want 1 (slabs amortised: at most 1.02)", shards, newKey)
		}
		if overwrite > 1 {
			t.Errorf("%d shards: PutContext of an overwrite allocates %.0f objects, want 1", shards, overwrite)
		}
		if batch > 16*1.02 {
			t.Errorf("%d shards: a 16-op WriteContext allocates %.3f objects, want 16 (slabs amortised: at most %.2f)", shards, batch, 16*1.02)
		}
	}
}
