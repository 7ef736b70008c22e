package cluster

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestStressOpDeadlineNotInheritedOnReuse: a quorum op keeps its legs' deadline
// in itself and re-arms it for the next op. Each round here arms an op with
// a deadline of a few dozen microseconds and gives it a leg that runs about
// as long, so the deadline fires mid-leg in some rounds and just as the op
// finishes in others — when its timer's callback can still be on its way.
// The op is recycled as the leg reports and taken again at once with an
// hour to run, and that op's leg must see neither the expiry nor the
// closed channel of the one before. Run under -race.
func TestStressOpDeadlineNotInheritedOnReuse(t *testing.T) {
	rt := &Router{}
	rt.ops.New = func() any { return newQuorumOp(rt) }
	r := rand.New(rand.NewSource(1))
	var expired, reused int
	var failures atomic.Int32
	for round := 0; round < 2000 && failures.Load() == 0; round++ {
		rt.opts.RequestTimeout = time.Duration(r.Intn(80)) * time.Microsecond
		o := rt.acquireOp(context.Background())
		if o.cancel != nil {
			t.Fatal("an op under a context that is never cancelled derived one with context.WithTimeout")
		}
		legDone := make(chan bool)
		o.retain()
		go func(first context.Context, run time.Duration) {
			defer o.release()
			select {
			case <-first.Done():
				if !errors.Is(first.Err(), context.DeadlineExceeded) {
					t.Errorf("deadline fired with Err() = %v", first.Err())
					failures.Add(1)
				}
				legDone <- true
			case <-time.After(run):
				legDone <- false
			}
		}(o.first, time.Duration(r.Intn(80))*time.Microsecond)
		o.release()
		if <-legDone {
			expired++
		}

		rt.opts.RequestTimeout = time.Hour
		next := rt.acquireOp(context.Background())
		if next == o {
			reused++
		}
		next.retain()
		go func(first context.Context) {
			defer func() { legDone <- true }()
			defer next.release()
			for i := 0; i < 20; i++ {
				select {
				case <-first.Done():
					t.Errorf("round %d: a fresh op's leg saw its deadline expired (Err() = %v)", round, first.Err())
					failures.Add(1)
					return
				default:
				}
				if err := first.Err(); err != nil {
					t.Errorf("round %d: a fresh op's leg saw Err() = %v", round, err)
					failures.Add(1)
					return
				}
				runtime.Gosched() // let a stale timer callback run
			}
		}(next.first)
		next.release()
		<-legDone
	}
	t.Logf("%d of 2000 deadlines fired mid-leg; %d ops reused at once", expired, reused)
	if failures.Load() == 0 && (expired == 0 || reused < 200) {
		t.Fatalf("%d deadlines fired and %d ops were reused: the test no longer covers reuse after expiry", expired, reused)
	}
}

// TestStressCancelledCallerReachesLegs: under a caller context that can be
// cancelled an op's legs run under context.WithTimeout of it, so the
// cancellation withdraws requests already on the wire. With every replica
// stalling reads, a cancelled Get returns at once and its legs finish with
// it, long before the 20 s request timeout.
func TestStressCancelledCallerReachesLegs(t *testing.T) {
	gc := startGatedCluster(t, semanticsOptions())
	key, value := []byte("cancelled"), []byte("v")
	if err := gc.rt.Put(context.Background(), key, value); err != nil {
		t.Fatal(err)
	}
	gc.settle(key, value)
	for _, g := range gc.gates {
		defer g.blockReads()()
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := gc.rt.Get(ctx, key)
		errc <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled Get returned %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled Get did not return")
	}
	legs := make(chan struct{})
	go func() {
		gc.rt.bg.Wait()
		close(legs)
	}()
	select {
	case <-legs:
	case <-time.After(5 * time.Second):
		t.Fatal("the cancelled Get's legs are still waiting on their replicas")
	}
}
