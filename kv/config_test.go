package kv

import (
	"errors"
	"testing"
	"time"
)

// TestConfigErrorsWrapSentinel pins every configuration rejection to the
// ErrConfig sentinel so callers can distinguish "fix your options and
// retry" from operational failures with errors.Is.
func TestConfigErrorsWrapSentinel(t *testing.T) {
	cases := []struct {
		name string
		call func() error
	}{
		{"empty dial address", func() error {
			_, err := Dial("")
			return err
		}},
		{"negative shard count", func() error {
			_, err := Open(t.TempDir(), WithShards(-1))
			return err
		}},
		{"open-only option on Dial", func() error {
			_, err := Dial("127.0.0.1:1", WithShards(2))
			return err
		}},
		{"dial-only option on Open", func() error {
			_, err := Open(t.TempDir(), WithDialTimeout(time.Second))
			return err
		}},
		{"non-positive dial timeout", func() error {
			_, err := Dial("127.0.0.1:1", WithDialTimeout(0))
			return err
		}},
		{"stats handler without address", func() error {
			_, err := Open(t.TempDir(), WithStatsHandler(""))
			return err
		}},
		// An unknown or exact-set strategy name fails Open, not every
		// compaction after it.
		{"unknown compaction strategy", func() error {
			_, err := Open(t.TempDir(), WithCompactionStrategy("nope", 4))
			return err
		}},
		{"exact-set compaction strategy", func() error {
			_, err := Open(t.TempDir(), WithCompactionStrategy("LM", 4))
			return err
		}},
	}
	for _, tc := range cases {
		err := tc.call()
		if err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
			continue
		}
		if !errors.Is(err, ErrConfig) {
			t.Errorf("%s: err = %v, want errors.Is(err, ErrConfig)", tc.name, err)
		}
	}
}
