package kv

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestRemoteRedialConcurrent breaks the remote engine's connection — the
// one thing that still makes it re-dial — and then fires many operations at
// once. Every operation must transparently re-dial and succeed; the losers
// of the re-dial race must adopt the winner's connection instead of
// deadlocking or erroring. This is the regression test for dialing outside
// e.mu: with the dial inside the lock, a slow dial would serialize all of
// these behind one another.
func TestRemoteRedialConcurrent(t *testing.T) {
	eng := openRemote(t)
	re, ok := eng.(*remoteEngine)
	if !ok {
		t.Fatalf("openRemote returned %T, want *remoteEngine", eng)
	}
	ctx := context.Background()
	if err := eng.Put(ctx, []byte("seed"), []byte("v1")); err != nil {
		t.Fatal(err)
	}

	// Break the live connection the way a lost transport would: close it
	// out from under the engine so Healthy() reports false.
	re.mu.Lock()
	c := re.c
	re.mu.Unlock()
	if c == nil {
		t.Fatal("remote engine has no connection after a successful Put")
	}
	c.Close()

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := []byte(fmt.Sprintf("k-%d", i))
			if err := eng.Put(ctx, key, []byte("v")); err != nil {
				errs[i] = err
				return
			}
			got, err := eng.Get(ctx, []byte("seed"))
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(got, []byte("v1")) {
				errs[i] = fmt.Errorf("seed = %q, want v1", got)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("worker %d: %v", i, err)
		}
	}

	// The race left exactly one adopted connection; it must be healthy and
	// the engine must still work.
	re.mu.Lock()
	c = re.c
	re.mu.Unlock()
	if c == nil || !c.Healthy() {
		t.Fatalf("no healthy connection after concurrent re-dial")
	}
	if _, err := eng.Get(ctx, []byte("k-0")); err != nil {
		t.Fatal(err)
	}
}
