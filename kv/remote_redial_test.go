package kv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/kvnet"
)

// TestRemoteRedialConcurrent breaks the remote engine's connection — the
// one thing that still makes it re-dial — and then fires many operations at
// once. Every operation must transparently re-dial and succeed, and the
// race must leave the engine one healthy connection.
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
	c, err := re.peer.Client(ctx)
	if err != nil {
		t.Fatal(err)
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

	if c, err = re.peer.Client(ctx); err != nil || !c.Healthy() {
		t.Fatalf("no healthy connection after concurrent re-dial: %v", err)
	}
	if _, err := eng.Get(ctx, []byte("k-0")); err != nil {
		t.Fatal(err)
	}
}

// TestRemoteRedialHonoursDeadline: an operation whose connection broke
// re-dials under its own context, so a held dial costs it its deadline,
// not the dial timeout.
func TestRemoteRedialHonoursDeadline(t *testing.T) {
	cfg := defaultConfig(entryDial)
	tcp := kvnet.TCPDialer(cfg.dialTimeout)
	held, release := make(chan struct{}, 1), make(chan struct{})
	defer close(release)
	cfg.dial = func(ctx context.Context, addr string) (net.Conn, error) {
		select {
		case <-held:
			select {
			case <-release:
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		default:
		}
		return tcp(ctx, addr)
	}
	re, err := newRemoteEngine(cfg, serveLocal(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	c, err := re.peer.Client(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	held <- struct{}{}

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	errc := make(chan error, 1)
	go func() { errc <- re.Put(ctx, []byte("k"), []byte("v")) }()
	select {
	case err := <-errc:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("Put during a held re-dial = %v, want DeadlineExceeded", err)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("Put with a 100ms deadline still waiting on a held re-dial after 500ms")
	}
	if err := re.Put(context.Background(), []byte("k"), []byte("v")); err != nil {
		t.Fatalf("Put once the dial is free = %v", err)
	}
}
