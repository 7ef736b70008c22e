package lsm

import (
	"fmt"
	"runtime"
	"testing"
)

// freshBatch fills a new WriteBatch with one Put per key, each of val: the
// shape of a bulk loader that builds every batch afresh.
func freshBatch(keys [][]byte, val []byte) *WriteBatch {
	b := new(WriteBatch)
	for _, k := range keys {
		b.Put(k, val)
	}
	return b
}

// loadShapeBatch returns the keys and value of one bulk-load batch: 256
// user%016x keys (20 B) and a 100 B value.
func loadShapeBatch(tb testing.TB) ([][]byte, []byte) {
	tb.Helper()
	keys := make([][]byte, 256)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%016x", uint64(i)*0x9e3779b97f4a7c15))
	}
	return keys, make([]byte, 100)
}

// TestAllocFreshWriteBatch pins what a fresh 256-op batch costs to fill. Its
// arena and op slice at least double when full, so filling it reallocates
// each a handful of times, not once per 1.25× step: at most 4× its payload
// in bytes and 20 objects.
func TestAllocFreshWriteBatch(t *testing.T) {
	keys, val := loadShapeBatch(t)
	payload := len(keys) * (len(keys[0]) + len(val))
	const runs = 100
	var b *WriteBatch
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		b = freshBatch(keys, val)
	}
	runtime.ReadMemStats(&after)
	objects := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("fresh 256-op batch: %.1f objects, %.0f B for a %d B payload (%.2f×)", objects, bytes, payload, bytes/float64(payload))
	if b.Len() != len(keys) || b.SizeBytes() != payload+8*len(keys) {
		t.Fatalf("batch holds %d ops of %d B, want %d of %d", b.Len(), b.SizeBytes(), len(keys), payload+8*len(keys))
	}
	if objects > 20 {
		t.Errorf("filling a fresh 256-op batch allocates %.1f objects, want at most 20", objects)
	}
	if bytes > 4*float64(payload) {
		t.Errorf("filling a fresh 256-op batch allocates %.0f B, want at most 4× its %d B payload", bytes, payload)
	}
}

// BenchmarkWriteBatchFresh256 fills a fresh 256-op batch of the bulk load's
// shape per iteration.
//
// Run with:
//
//	go test -bench BenchmarkWriteBatchFresh256 -run XXX ./internal/lsm
func BenchmarkWriteBatchFresh256(b *testing.B) {
	keys, val := loadShapeBatch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batchSink = freshBatch(keys, val)
	}
}

// batchSink keeps the benchmark's batches live, so the compiler cannot drop
// the work that builds them.
var batchSink *WriteBatch
