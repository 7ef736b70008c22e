package lsm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/model"
)

// This file is the race harness for non-blocking major compaction:
// readers, writers and iterators hammer the store while MajorCompact runs
// concurrently, under `go test -race`. The tests assert the two properties
// the snapshot/swap design must provide: no write is ever lost, and no
// reader ever touches a table that compaction has closed (the race
// detector and closed-file errors would catch the latter).

// TestConcurrentOpsDuringMajorCompact runs writers, point readers and
// scanners concurrently with repeated non-blocking major compactions, then
// verifies every writer's final value survived.
func TestConcurrentOpsDuringMajorCompact(t *testing.T) {
	db, err := Open(t.TempDir(), Options{
		MemtableBytes: 2 << 10, // tiny: force frequent flushes
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	// Seed enough tables that the first compaction has real work.
	m := model.New()
	for i := 0; i < 8; i++ {
		for j := 0; j < 50; j++ {
			key, val := fmt.Sprintf("seed-%02d-%03d", i, j), strings.Repeat("s", 64)
			if err := db.PutContext(context.Background(), []byte(key), []byte(val)); err != nil {
				t.Fatal(err)
			}
			m.Put(key, val)
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	const (
		writers       = 4
		opsPerWriter  = 400
		keysPerWriter = 100
	)
	var (
		writerWG sync.WaitGroup // writers run to completion
		auxWG    sync.WaitGroup // readers/scanner/compactor run until stop
		stop     atomic.Bool
		testErr  atomic.Value // first error from any goroutine
	)
	fail := func(err error) {
		testErr.CompareAndSwap(nil, err)
	}

	// Writers: each owns a disjoint key range and records its writes in
	// the model; one op in five is a delete.
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			mix := model.Mix{Prefix: fmt.Sprintf("w%d-", w), Keys: keysPerWriter, Delete: 0.2}
			for _, op := range model.Stream(int64(w), opsPerWriter, mix) {
				if err := write(db, op); err != nil {
					fail(fmt.Errorf("writer %d: %w", w, err))
					return
				}
				m.Apply(op...)
			}
		}(w)
	}

	// Point readers: seeded keys must always resolve; writer keys are in
	// flux, so only errors other than ErrNotFound are failures.
	for r := 0; r < 2; r++ {
		auxWG.Add(1)
		go func(r int) {
			defer auxWG.Done()
			for i := 0; !stop.Load(); i++ {
				seeded := fmt.Sprintf("seed-%02d-%03d", i%8, i%50)
				if _, err := db.GetContext(context.Background(), []byte(seeded)); err != nil {
					fail(fmt.Errorf("reader %d: seeded key %s: %w", r, seeded, err))
					return
				}
				churning := fmt.Sprintf("w%d-key-%04d", i%writers, i%keysPerWriter)
				if _, err := db.GetContext(context.Background(), []byte(churning)); err != nil && !errors.Is(err, ErrNotFound) {
					fail(fmt.Errorf("reader %d: churning key %s: %w", r, churning, err))
					return
				}
			}
		}(r)
	}

	// Scanner: full iterations concurrent with compaction table swaps;
	// the snapshot must stay readable after its tables are superseded.
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		for !stop.Load() {
			prev := ""
			err := db.RangeContext(context.Background(), nil, nil, func(k, v []byte) error {
				if string(k) <= prev {
					return fmt.Errorf("scan out of order: %q after %q", k, prev)
				}
				prev = string(k)
				return nil
			})
			if err != nil {
				fail(fmt.Errorf("scanner: %w", err))
				return
			}
		}
	}()

	// Compactor: repeated non-blocking major compactions while the
	// workload runs, cycling strategies and fan-ins.
	var compactions atomic.Int64
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		for i := 0; !stop.Load(); i++ {
			strat := []string{"SI", "BT(I)", "RANDOM"}[i%3]
			if _, err := db.MajorCompact(strat, 2+i%3, int64(i)); err != nil {
				fail(fmt.Errorf("compactor: %w", err))
				return
			}
			compactions.Add(1)
		}
	}()

	writerWG.Wait()
	stop.Store(true)
	auxWG.Wait()

	if err, _ := testErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	if compactions.Load() == 0 {
		t.Fatal("no compaction completed during the workload")
	}

	// One final compaction, then check no write was lost and every deleted
	// key stays gone.
	if _, err := db.MajorCompact("BT(I)", 3, 1); err != nil {
		t.Fatal(err)
	}
	model.Check(t, dbReader{db}, m)
}

// TestCloseDuringBackgroundCompaction closes the store while a major
// compaction is merging; the compaction must abort cleanly and a reopen
// must see every acknowledged write.
func TestCloseDuringBackgroundCompaction(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(dir, Options{MemtableBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	want := model.New()
	for i := 0; i < 1200; i++ {
		key := fmt.Sprintf("key-%04d", i%300)
		v := fmt.Sprintf("val-%d", i)
		if err := db.PutContext(context.Background(), []byte(key), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want.Put(key, v)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}

	compactDone := make(chan error, 1)
	go func() {
		_, err := db.MajorCompact("BT(I)", 2, 1)
		compactDone <- err
	}()
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The compaction either finished before Close took effect or aborted
	// with ErrClosed; both are valid.
	if err := <-compactDone; err != nil && !errors.Is(err, ErrClosed) {
		t.Fatalf("compaction during close: %v", err)
	}

	db, err = Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	model.Check(t, dbReader{db}, want)
}
