package lsm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

// mallocsPerRun reports the mean number of heap objects one call of fn
// allocates. Unlike testing.AllocsPerRun it does not round down, so a
// slab's share of each call shows.
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

// TestAllocPutOneObject pins the write path's allocation budget: on a
// warm DB a put allocates its memtable version, which carries the value,
// and nothing else. The commit request, its wake channel and the single-op
// batch are recycled, and a new key's node and key copy are carved from the
// memtable's slabs, whose share here is about 1 %. A 16-op batch allocates
// its 16 versions.
func TestAllocPutOneObject(t *testing.T) {
	measureRecycling(t)
	db := openTestDB(t, Options{MemtableBytes: 64 << 20})
	ctx := context.Background()
	const runs = 10000
	val := bytes.Repeat([]byte("v"), 100)
	keys := make([][]byte, 10*runs)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%016d", i*7919%len(keys)))
	}
	next := 0
	put := func(key []byte) {
		if err := db.PutContext(ctx, key, val); err != nil {
			t.Fatal(err)
		}
	}

	newKey := mallocsPerRun(runs, func() { put(keys[next]); next++ })
	overwrite := testing.AllocsPerRun(runs, func() { put(keys[0]) })
	var b WriteBatch
	batch := mallocsPerRun(runs/2, func() {
		b.Reset()
		for i := 0; i < 16; i++ {
			b.Put(keys[next], val)
			next++
		}
		if err := db.WriteContext(ctx, &b); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("PutContext: %.3f objects for a new key, %.0f for an overwrite; 16-op WriteContext: %.3f", newKey, overwrite, batch)
	if newKey > 1.02 {
		t.Errorf("PutContext of a new key allocates %.3f objects, want 1 (slabs amortised: at most 1.02)", newKey)
	}
	if overwrite > 1 {
		t.Errorf("PutContext of an overwrite allocates %.0f objects, want 1", overwrite)
	}
	if batch > 16*1.02 {
		t.Errorf("a 16-op WriteContext allocates %.3f objects, want 16 (slabs amortised: at most %.2f)", batch, 16*1.02)
	}
}

// TestStressCommitCancellation races writers whose deadlines expire at
// random points of the commit pipeline — before they enqueue, while parked,
// while their group is being claimed, after it committed — against each
// other. Every write that returned nil must be readable and every write
// that returned its context's error must not be. Commit requests are
// recycled, so one put back while a wake was still on its way would hand
// that wake to the next writer, which would return an outcome that is not
// its own; that fails here. Run under -race.
func TestStressCommitCancellation(t *testing.T) { reusedAndPoisoned(t, stressCommitCancellation) }

func stressCommitCancellation(t *testing.T) {
	db := openTestDB(t, Options{SyncWAL: true, MemtableBytes: 256 << 10})
	const writers, writes = 8, 250
	type outcome struct {
		key, value []byte
		err        error
		late       bool // nil returned after the deadline had passed
	}
	results := make([][]outcome, writers)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < writes; i++ {
				o := outcome{key: []byte(fmt.Sprintf("w%d-%04d", w, i)), value: []byte(fmt.Sprintf("value-%d-%d", w, i))}
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration(r.Intn(400))*time.Microsecond)
				o.err = db.PutContext(ctx, o.key, o.value)
				o.late = o.err == nil && ctx.Err() != nil
				cancel()
				results[w] = append(results[w], o)
			}
		}(w)
	}
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		t.Fatal("writers still blocked in the commit pipeline after two minutes")
	}

	var acked, abandoned, late int
	ctx := context.Background()
	for _, rs := range results {
		for _, o := range rs {
			got, err := db.GetContext(ctx, o.key)
			switch {
			case o.err == nil:
				acked++
				if o.late {
					late++
				}
				if err != nil || !bytes.Equal(got, o.value) {
					t.Errorf("acknowledged write %s reads back %q, %v", o.key, got, err)
				}
			case errors.Is(o.err, context.DeadlineExceeded):
				abandoned++
				if !errors.Is(err, ErrNotFound) {
					t.Errorf("write %s returned %v but reads back %q, %v", o.key, o.err, got, err)
				}
			default:
				t.Errorf("write %s: %v", o.key, o.err)
			}
		}
	}
	t.Logf("%d acknowledged (%d past their deadline), %d abandoned", acked, late, abandoned)
	if acked == 0 || abandoned == 0 {
		t.Fatalf("%d acknowledged, %d abandoned: the deadlines no longer straddle the commits", acked, abandoned)
	}
}
