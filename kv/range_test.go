package kv

import (
	"context"
	"errors"
	"testing"
)

// TestRangeGuardOrder: every backend's engine and snapshot NewIterator check
// in one order, reversed bounds included. A done ctx fails first; then a
// released snapshot or a closed engine fails with ErrClosed; only then do
// reversed bounds give an empty iterator.
func TestRangeGuardOrder(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			ctx := context.Background()
			done, cancel := context.WithCancel(ctx)
			cancel()
			lo, hi := []byte("k9"), []byte("k1")
			eng := bc.open(t)
			fillKeys(t, eng, 10)
			live, err := eng.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer live.Release()
			released, err := eng.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			released.Release()

			empty := func(what string, it Iterator, err error) {
				t.Helper()
				if err != nil {
					t.Fatalf("%s: %v, want an empty iterator", what, err)
				}
				defer it.Close()
				if it.Valid() || it.Err() != nil {
					t.Errorf("%s: iterator not empty (err %v)", what, it.Err())
				}
			}
			it, err := eng.NewIterator(ctx, lo, hi)
			empty("engine, reversed bounds", it, err)
			it, err = live.NewIterator(ctx, lo, hi)
			empty("snapshot, reversed bounds", it, err)

			refused := func(what string, err, want error) {
				t.Helper()
				if !errors.Is(err, want) {
					t.Errorf("%s: %v, want %v", what, err, want)
				}
			}
			_, err = live.NewIterator(done, lo, hi)
			refused("snapshot, done ctx, reversed bounds", err, context.Canceled)
			_, err = released.NewIterator(ctx, lo, hi)
			refused("released snapshot, reversed bounds", err, ErrClosed)
			_, err = released.NewIterator(done, lo, hi)
			refused("released snapshot, done ctx", err, context.Canceled)

			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			_, err = eng.NewIterator(ctx, lo, hi)
			refused("closed engine, reversed bounds", err, ErrClosed)
			_, err = live.NewIterator(ctx, lo, hi)
			refused("snapshot of a closed engine, reversed bounds", err, ErrClosed)
			_, err = eng.NewIterator(done, lo, hi)
			refused("closed engine, done ctx", err, context.Canceled)
		})
	}
}
