package cluster

import (
	"context"
	"fmt"
	"testing"
)

// loadedCluster is three in-process nodes behind a router, with the keys
// the allocation test and the benchmarks cycle through already written to
// every replica.
func loadedCluster(tb testing.TB) (rt *Router, keys [][]byte, value []byte) {
	tb.Helper()
	rt = startCluster(tb, 3)
	value = make([]byte, 100)
	keys = make([][]byte, 512)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%012d", i))
		if err := rt.Put(context.Background(), keys[i], value); err != nil {
			tb.Fatal(err)
		}
	}
	return rt, keys, value
}

// TestAllocRouterBudget holds the quorum path to its allocation budget,
// counted over the whole process so the three servers' share is in it.
// What a Get still allocates is the engine's copy of the value on each of
// the two replicas asked and the winner's value copied out for the caller
// (each leg reads its replica's answer into a buffer the pooled op keeps);
// a Put, the memtable version on each of the three replicas. The op's
// deadline is its own, re-armed per op. The per-op maps, closures,
// channels and per-leg contexts this replaced cost 40 and 51; a
// context.WithTimeout per op, with each engine's commit request and key and
// value copies, 9 and 17; a fresh value per leg, 4 for a Get.
func TestAllocRouterBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled ops are dropped at random under the race detector")
	}
	const getBudget, putBudget = 3, 3
	rt, keys, value := loadedCluster(t)
	ctx := context.Background()
	i := 0
	get := testing.AllocsPerRun(2000, func() {
		if _, err := rt.Get(ctx, keys[i%len(keys)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	put := testing.AllocsPerRun(2000, func() {
		if err := rt.Put(ctx, keys[i%len(keys)], value); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("Router.Get allocates %.0f objects per op, Router.Put %.0f", get, put)
	if get > getBudget {
		t.Errorf("Router.Get allocates %.0f objects per op, budget %d", get, getBudget)
	}
	if put > putBudget {
		t.Errorf("Router.Put allocates %.0f objects per op, budget %d", put, putBudget)
	}
}

func BenchmarkRouterGet(b *testing.B) {
	rt, keys, _ := loadedCluster(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rt.Get(ctx, keys[i%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRouterPut(b *testing.B) {
	rt, keys, value := loadedCluster(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Put(ctx, keys[i%len(keys)], value); err != nil {
			b.Fatal(err)
		}
	}
}
