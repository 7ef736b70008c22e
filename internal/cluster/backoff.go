package cluster

// This file is the router's one implementation of jittered exponential
// backoff: the failure detector's probes of a down node (probeBackoff) and
// the re-attempt a replica read or write gets (retryBackoff) both use it.
// Only the probes grow: a replica's one re-attempt is attempt 0, uniform in
// [base/2, base] at the default jitter (12.5–25ms at the default base).

import (
	"context"
	"math/rand"
	"time"
)

// backoff computes per-attempt delays: base doubling each attempt, capped
// at max, with a uniformly random jitter fraction subtracted so that many
// independent retriers (replica writes fanned out together, N routers
// probing the same dead node) do not synchronize into retry storms. The
// zero value is usable and selects the defaults below.
type backoff struct {
	// base is the delay before the first retry. Zero selects 10ms.
	base time.Duration
	// max caps the exponential growth. Zero selects 2s.
	max time.Duration
	// jitter is the fraction of the computed delay randomly shaved off:
	// the actual delay is uniform in [d*(1-jitter), d]. Zero selects 0.5;
	// negative disables jitter (deterministic delays, for tests).
	jitter float64
}

const (
	defaultBase   = 10 * time.Millisecond
	defaultMax    = 2 * time.Second
	defaultJitter = 0.5
)

// delay returns the backoff delay for the given retry attempt, counted
// from 0 (the delay before the first retry). Delays grow base·2^attempt up
// to max, then jitter shaves off a random fraction.
func (b backoff) delay(attempt int) time.Duration {
	base, max, jitter := b.base, b.max, b.jitter
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
		d = d - time.Duration(rand.Float64()*jitter*float64(d))
	}
	if d < 0 {
		d = 0
	}
	return d
}

// sleep blocks for the attempt's delay or until ctx expires, returning
// ctx's error in the latter case. The timer is torn down on early exit.
func (b backoff) sleep(ctx context.Context, attempt int) error {
	d := b.delay(attempt)
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
