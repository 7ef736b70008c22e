package store

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/iterator"
	"repro/internal/lsm"
)

// TestAllocScanSetUpIndependentOfTableCount is lsm's test of the same name one
// layer up: through the store a short scan allocates the same at two tables
// per shard and at sixteen, and at one shard and at four — every shard's
// sources go into one recycled merge.
func TestAllocScanSetUpIndependentOfTableCount(t *testing.T) {
	measureRecycling(t)
	val := bytes.Repeat([]byte("v"), 100)
	start := []byte(fmt.Sprintf("key-%06d", 40))
	scan := func(shards, tables int) func() {
		s := openStore(t, shards, lsm.Options{MemtableBytes: 64 << 20})
		for tbl := 0; tbl < tables; tbl++ {
			for i := 0; i < 1000; i++ {
				if err := s.PutContext(context.Background(), []byte(fmt.Sprintf("key-%06d", i*8+tbl)), val); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if got := s.Stats().Tables; got != shards*tables {
			t.Fatalf("%d shards hold %d tables, want %d", shards, got, shards*tables)
		}
		return func() {
			it, release, err := s.NewIterator(start, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10 && it.Valid(); i++ {
				it.Next()
			}
			release()
		}
	}
	type shape struct{ shards, tables int }
	base := shape{1, 2}
	baseScan := scan(base.shards, base.tables)
	wantAllocs, wantBytes := testing.AllocsPerRun(100, baseScan), allocBytesPerRun(200, baseScan)
	for _, sh := range []shape{{1, 16}, {4, 2}, {4, 16}} {
		fn := scan(sh.shards, sh.tables)
		if got := testing.AllocsPerRun(100, fn); got != wantAllocs {
			t.Errorf("NewIterator+10xNext: %v allocs at %+v, %v at %+v", got, sh, wantAllocs, base)
		}
		if got := allocBytesPerRun(200, fn); got-wantBytes > 64 || wantBytes-got > 64 {
			t.Errorf("NewIterator+10xNext: %.0f bytes at %+v, %.0f at %+v", got, sh, wantBytes, base)
		}
	}
	t.Logf("NewIterator+10xNext: %v allocs, %.0f B/op", wantAllocs, wantBytes)
}

// measureRecycling prepares t to count what a recycled scan allocates: it
// skips under the race detector, which drops pooled objects at random, and
// runs the test on one P, since the object sync.Pool keeps in a P's private
// slot is out of reach of a goroutine that has moved to another P.
func measureRecycling(t *testing.T) {
	if raceEnabled {
		t.Skip("recycled scans are dropped at random under the race detector")
	}
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// allocBytesPerRun reports the mean bytes allocated by one call of fn.
func allocBytesPerRun(runs int, fn func()) float64 {
	fn() // warm up lazily built state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// corruptKeys is how many keys corruptedStore writes: about a hundred 2 KiB
// blocks per shard at two shards, so the damage lands mid-scan.
const corruptKeys = 20000

// corruptedStore writes corruptKeys keys to a new store of the given shard
// count, flushes and closes it, flips 64 bytes in the middle of its largest
// table — inside a data block, which is most of the file — and reopens it.
// Open reads footers, indexes and filters only, and the block cache starts
// empty, so the damage shows when a scan reaches the block.
func corruptedStore(t *testing.T, shards int) *Store {
	t.Helper()
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < corruptKeys; i++ {
		if err := s.PutContext(context.Background(), []byte(fmt.Sprintf("key-%06d", i)), bytes.Repeat([]byte{'v'}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	flipMidTable(t, dir)
	s, err = Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// flipMidTable inverts 64 bytes in the middle of the largest table under
// dir: in dir itself at one shard, in its shard directories at more.
func flipMidTable(t *testing.T, dir string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*.sst"))
	if sharded, _ := filepath.Glob(filepath.Join(dir, "*", "*.sst")); err == nil {
		paths = append(paths, sharded...)
	}
	if err != nil || len(paths) == 0 {
		t.Fatalf("no tables under %s: %v", dir, err)
	}
	var largest []byte
	var path string
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > len(largest) {
			largest, path = data, p
		}
	}
	for i := len(largest) / 2; i < len(largest)/2+64; i++ {
		largest[i] ^= 0xff
	}
	if err := os.WriteFile(path, largest, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStressScanSurfacesCorruptTable: a table that fails its checksum mid-scan
// ends a store scan with ErrCorrupt — through RangeContext, through
// NewIterator and IterErr, and through a snapshot's iterator — at one shard
// and at two, instead of ending it early as if it were complete.
func TestStressScanSurfacesCorruptTable(t *testing.T) {
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := corruptedStore(t, shards)
			n := 0
			err := s.RangeContext(context.Background(), nil, nil, func(_, _ []byte) error {
				n++
				return nil
			})
			if !errors.Is(err, lsm.ErrCorrupt) || n >= corruptKeys {
				t.Errorf("RangeContext read %d of %d entries and returned %v, want ErrCorrupt", n, corruptKeys, err)
			}
			drain := func(what string, it iterator.Iterator, release func(), err error) {
				if err != nil {
					t.Fatal(err)
				}
				defer release()
				n := 0
				for ; it.Valid(); it.Next() {
					n++
				}
				if err := lsm.IterErr(it); !errors.Is(err, lsm.ErrCorrupt) || n >= corruptKeys {
					t.Errorf("%s read %d of %d entries and ended with %v, want ErrCorrupt", what, n, corruptKeys, err)
				}
			}
			it, release, err := s.NewIterator(nil, nil)
			drain("NewIterator", it, release, err)
			sn, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer sn.Release()
			it, release, err = sn.NewIterator(nil, nil)
			drain("Snapshot.NewIterator", it, release, err)
		})
	}
}

// TestNarrowScanHoldsItsWholeView is lsm's test of the same name through a
// 2-shard store: a scan over [m, n) pins each shard's whole view, so every
// table a compaction supersedes under it, those outside its range too,
// keeps its file until the release and loses it there.
func TestNarrowScanHoldsItsWholeView(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	put := func(prefix, val string) {
		t.Helper()
		for k := 0; k < 50; k++ {
			if err := s.PutContext(context.Background(), []byte(fmt.Sprintf("%s-%03d", prefix, k)), []byte(val)); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	put("b", "old")
	put("m", "old")
	before, err := filepath.Glob(filepath.Join(dir, "*", "*.sst"))
	if err != nil || len(before) != 4 {
		t.Fatalf("2 shards hold tables %v (%v), want two each", before, err)
	}

	it, release, err := s.NewIterator([]byte("m"), []byte("n"))
	if err != nil {
		t.Fatal(err)
	}
	put("b", "new")
	if _, err := s.MajorCompact("BT(I)", 2, 1); err != nil {
		t.Fatal(err)
	}
	for _, path := range before {
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("superseded table deleted while the scan is open: %v", err)
		}
	}
	n := 0
	for ; it.Valid(); it.Next() {
		if e := it.Entry(); !bytes.HasPrefix(e.Key, []byte("m-")) || string(e.Value) != "old" {
			t.Fatalf("scan over [m, n) saw %q = %q", e.Key, e.Value)
		}
		n++
	}
	release()
	if n != 50 {
		t.Fatalf("scan yielded %d entries, want 50", n)
	}
	for _, path := range before {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("superseded table %s not deleted at the scan's release (err=%v)", path, err)
		}
	}
}
