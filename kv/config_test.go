package kv

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
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

// TestDefaultOptionsBoundTables: kv.Open with default compaction options
// bounds its own table count. An overwrite stream over a fixed key set, with
// no explicit Flush, rotates a shrunken memtable at least 64 times; the
// default policy (BT(I), due at 2k = 8 tables) keeps live tables at most
// 2k + 1 at every sample, and table bytes within 3× the live data, on the
// way and on disk at the end.
func TestDefaultOptionsBoundTables(t *testing.T) {
	const (
		keys, valueBytes = 1000, 100
		rotations        = 64
		maxTables        = 2*4 + 1
	)
	dir := t.TempDir()
	eng, err := Open(dir, WithMemtableBytes(16<<10))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	value := make([]byte, valueBytes)
	liveBytes := uint64(keys * (len("key-0000") + valueBytes))
	var st Stats
	for i := 0; st.Flushes < rotations; i++ {
		if i == 100*keys {
			t.Fatalf("%d puts made only %d flushes", i, st.Flushes)
		}
		rng.Read(value)
		if err := eng.Put(ctx, fmt.Appendf(nil, "key-%04d", rng.Intn(keys)), value); err != nil {
			t.Fatal(err)
		}
		if i%50 == 0 {
			if st, err = eng.Stats(ctx); err != nil {
				t.Fatal(err)
			}
			if st.Tables > maxTables || st.TableBytes > 3*liveBytes {
				t.Fatalf("after %d puts and %d flushes: %d tables of %d bytes, want at most %d tables and %d bytes",
					i+1, st.Flushes, st.Tables, st.TableBytes, maxTables, 3*liveBytes)
			}
		}
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	var onDisk uint64
	err = filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(path, ".sst") {
			return err
		}
		info, err := d.Info()
		onDisk += uint64(info.Size())
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d flushes leave %d tables, %d .sst bytes for %d live", st.Flushes, st.Tables, onDisk, liveBytes)
	if onDisk > 3*liveBytes {
		t.Errorf(".sst files hold %d bytes after %d flushes, want at most 3× the %d live", onDisk, st.Flushes, liveBytes)
	}
}

// TestDocsStateTheDefaultPolicy: README's WithAutoCompact row and
// docs/compaction.md's "Choosing a policy" name as the default the one
// strategy defaultConfig applies, to minor picks and Compact alike, at the
// same fan-in, so the front ends and their docs cannot drift apart again.
func TestDocsStateTheDefaultPolicy(t *testing.T) {
	cfg := defaultConfig(entryOpen)
	if cfg.autoCompact != cfg.compactStrategy {
		t.Fatalf("defaultConfig picks with %q but compacts with %q", cfg.autoCompact, cfg.compactStrategy)
	}
	phrase := regexp.MustCompile("default:? `\"?([^`\"]+)\"?` at k = (\\d+)")
	fanIns := map[string]bool{}
	for _, doc := range []struct{ path, from, to string }{
		{"../README.md", "| `WithAutoCompact(policy)` |", "\n"},
		{"../docs/compaction.md", "## Choosing a policy", "\n## "},
	} {
		src, err := os.ReadFile(doc.path)
		if err != nil {
			t.Fatal(err)
		}
		_, section, ok := strings.Cut(string(src), doc.from)
		if !ok {
			t.Fatalf("%s has no %q", doc.path, doc.from)
		}
		section, _, _ = strings.Cut(section, doc.to)
		m := phrase.FindAllStringSubmatch(section, -1)
		if len(m) != 1 {
			t.Fatalf("%s: %q states %d defaults, want one", doc.path, doc.from, len(m))
		}
		if m[0][1] != cfg.autoCompact {
			t.Errorf("%s names the default %q, defaultConfig applies %q", doc.path, m[0][1], cfg.autoCompact)
		}
		fanIns[m[0][2]] = true
	}
	if len(fanIns) != 1 {
		t.Errorf("the docs state different default fan-ins: %v", fanIns)
	}
}
