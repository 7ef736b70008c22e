package cluster

// This file is the router's one implementation of jittered exponential
// backoff: the failure detector's probes of a down node (ProbeBackoff) and
// the re-attempt a replica read or write gets (RetryBackoff) both use it.

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Backoff computes per-attempt delays: Base doubling each attempt, capped
// at Max, with a uniformly random jitter fraction subtracted so that many
// independent retriers (replica writes fanned out together, N routers
// probing the same dead node) do not synchronize into retry storms. The
// zero value is usable and selects the defaults below.
type Backoff struct {
	// Base is the delay before the first retry. Zero selects 10ms.
	Base time.Duration
	// Max caps the exponential growth. Zero selects 2s.
	Max time.Duration
	// Jitter is the fraction of the computed delay randomly shaved off:
	// the actual delay is uniform in [d*(1-Jitter), d]. Zero selects 0.5;
	// negative disables jitter (deterministic delays, for tests).
	Jitter float64
}

const (
	defaultBase   = 10 * time.Millisecond
	defaultMax    = 2 * time.Second
	defaultJitter = 0.5
)

// jitterRand is the shared jitter source. math/rand's global functions
// would do, but a dedicated locked source keeps backoff independent of
// global seeding and makes the lock scope explicit.
var (
	jitterMu   sync.Mutex
	jitterRand = rand.New(rand.NewSource(time.Now().UnixNano()))
)

// Delay returns the backoff delay for the given retry attempt, counted
// from 0 (the delay before the first retry). Delays grow Base·2^attempt up
// to Max, then jitter shaves off a random fraction.
func (b Backoff) Delay(attempt int) time.Duration {
	base, max, jitter := b.Base, b.Max, b.Jitter
	if base <= 0 {
		base = defaultBase
	}
	if max <= 0 {
		max = defaultMax
	}
	switch {
	case jitter == 0:
		jitter = defaultJitter
	case jitter < 0:
		jitter = 0
	case jitter > 1:
		jitter = 1
	}
	if attempt < 0 {
		attempt = 0
	}
	d := base
	for i := 0; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	if jitter > 0 {
		jitterMu.Lock()
		f := jitterRand.Float64()
		jitterMu.Unlock()
		d = d - time.Duration(f*jitter*float64(d))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Sleep blocks for the attempt's delay or until ctx expires, returning
// ctx's error in the latter case. The timer is torn down on early exit.
func (b Backoff) Sleep(ctx context.Context, attempt int) error {
	d := b.Delay(attempt)
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
