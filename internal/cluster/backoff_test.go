package cluster

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestDelayGrowsAndCaps(t *testing.T) {
	b := backoff{base: 10 * time.Millisecond, max: 80 * time.Millisecond, jitter: -1}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := b.delay(i); got != w*time.Millisecond {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
	if got := b.delay(-3); got != 10*time.Millisecond {
		t.Errorf("Delay(negative) = %v", got)
	}
}

func TestDelayJitterBounds(t *testing.T) {
	b := backoff{base: 100 * time.Millisecond, max: time.Second, jitter: 0.5}
	for i := 0; i < 200; i++ {
		d := b.delay(1) // nominal 200ms
		if d < 100*time.Millisecond || d > 200*time.Millisecond {
			t.Fatalf("jittered delay %v outside [100ms, 200ms]", d)
		}
	}
	// Jitter actually varies.
	first := b.delay(1)
	varied := false
	for i := 0; i < 50 && !varied; i++ {
		varied = b.delay(1) != first
	}
	if !varied {
		t.Error("jittered delays never varied")
	}
}

func TestDefaultsApplied(t *testing.T) {
	var b backoff // all zero: Base 10ms, Max 2s, Jitter 0.5
	if d := b.delay(0); d <= 0 || d > defaultBase {
		t.Errorf("zero-value Delay(0) = %v", d)
	}
	if d := b.delay(40); d > defaultMax {
		t.Errorf("zero-value Delay(40) = %v exceeds default max", d)
	}
}

func TestSleepHonorsContext(t *testing.T) {
	b := backoff{base: time.Hour, jitter: -1}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- b.sleep(ctx, 0) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Sleep = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Sleep did not return after cancellation")
	}
}
