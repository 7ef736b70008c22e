package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/lsm"
	"repro/internal/model"
	"repro/internal/recycle"
	"repro/internal/vfs"
	"repro/internal/wal"
)

func openStore(t *testing.T, shards int, opts lsm.Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), Options{Shards: shards, Options: opts})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// readable is the read API a store shares with its shards.
type readable interface {
	GetContext(ctx context.Context, key []byte) ([]byte, error)
	RangeContext(ctx context.Context, start, end []byte, fn func(key, value []byte) error) error
}

// reader reads a store, or one of its shards, for model.Check, with
// ErrNotFound as not found.
type reader struct{ readable }

func (r reader) Get(key []byte) ([]byte, bool, error) {
	v, err := r.GetContext(context.Background(), key)
	if errors.Is(err, lsm.ErrNotFound) {
		return nil, false, nil
	}
	return v, err == nil, err
}

func (r reader) Scan(start, end []byte, fn func(key, value []byte) error) error {
	return r.RangeContext(context.Background(), start, end, fn)
}

// write commits one write of a model.Stream: a put, a delete, or a batch.
func write(s *Store, w []model.Op) error {
	ctx := context.Background()
	switch {
	case len(w) == 1 && w[0].Delete:
		return s.DeleteContext(ctx, []byte(w[0].Key))
	case len(w) == 1:
		return s.PutContext(ctx, []byte(w[0].Key), []byte(w[0].Value))
	}
	var b lsm.WriteBatch
	for _, op := range w {
		if op.Delete {
			b.Delete([]byte(op.Key))
		} else {
			b.Put([]byte(op.Key), []byte(op.Value))
		}
	}
	return s.WriteContext(ctx, &b)
}

// TestStoreEquivalence is the observational-equivalence property test: a
// sharded store with N ∈ {1, 2, 8} shards must behave exactly like the
// model under a stream of puts, deletes and cross-shard batches interleaved
// with flushes and major compactions, and again after a reopen.
func TestStoreEquivalence(t *testing.T) {
	for _, shards := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			s := openStore(t, shards, lsm.Options{MemtableBytes: 16 << 10})
			m := model.New()
			stream := model.Stream(int64(shards)*71, 3000, model.Mix{Keys: 800, Delete: 0.15, Batch: 0.2})
			for i, w := range stream {
				if err := write(s, w); err != nil {
					t.Fatal(err)
				}
				m.Apply(w...)
				if i%500 == 3 { // occasional maintenance
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
					if _, err := s.MajorCompact("BT(I)", 2, int64(i)); err != nil {
						t.Fatal(err)
					}
				}
				if i%1000 == 999 {
					model.Check(t, reader{s}, m)
				}
			}

			// And survives a reopen (all shard WALs replay in parallel).
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, err := Open(s.dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if s2.ShardCount() != shards {
				t.Fatalf("reopen adopted %d shards, want %d", s2.ShardCount(), shards)
			}
			model.Check(t, reader{s2}, m)
		})
	}
}

// batchTag extracts the "gNNbNNN" batch tag from a crash-test key.
func batchTag(key []byte) string {
	s := string(key)
	if i := strings.IndexByte(s, '-'); i >= 0 {
		return s[:i]
	}
	return s
}

// TestStoreCrashRecoveryPerShard kills a sharded store mid-write —
// concurrent writers commit tagged cross-shard batches, then every shard's
// WAL is truncated at an independent arbitrary offset, simulating a crash
// with different amounts of each WAL durable. On every other trial a
// shard's surviving WAL is laid out as a crash between a memtable rotation
// and its flush leaves it: two segments, split at a frame boundary, which
// must replay in order as if they were one. Every shard must pass its own
// model's prefix check: the recovered sub-batches are a prefix of that
// shard's commit order, and each sub-batch's keys on that shard are all
// present or all absent. (There is deliberately no cross-shard prefix
// property — the documented relaxed atomicity of cross-shard writes.)
func TestStoreCrashRecoveryPerShard(t *testing.T) {
	const shards = 4
	dir := t.TempDir()
	s, err := Open(dir, Options{
		Shards:  shards,
		Options: lsm.Options{SyncWAL: true, MemtableBytes: 256 << 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers = 8
		batches = 20
		keysPer = 6 // enough keys that most batches span several shards
	)
	var wg sync.WaitGroup
	var writeErr atomic.Value
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var b lsm.WriteBatch
			for bi := 0; bi < batches; bi++ {
				b.Reset()
				tag := fmt.Sprintf("g%02db%03d", g, bi)
				for j := 0; j < keysPer; j++ {
					b.Put([]byte(fmt.Sprintf("%s-k%d", tag, j)), []byte(tag))
				}
				if err := s.WriteContext(context.Background(), &b); err != nil {
					writeErr.CompareAndSwap(nil, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err, _ := writeErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Per shard: the full WAL bytes, and a model of the sub-batches in the
	// shard's commit order. A sub-batch's records are contiguous, and its
	// keys share its tag. The model's value is the tag the writers put, not
	// the logged one, so a value the log got wrong still fails the check.
	walData := make([][]byte, shards)
	models := make([]*model.Model, shards)
	logged := make([]int, shards)
	for sh := 0; sh < shards; sh++ {
		segs, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("shard-%03d", sh), "wal.log.*"))
		if err != nil || len(segs) != 1 {
			t.Fatalf("shard %d: want one WAL segment after a clean close, have %v (%v)", sh, segs, err)
		}
		if walData[sh], err = os.ReadFile(segs[0]); err != nil {
			t.Fatal(err)
		}
		models[sh] = model.New()
		var batch []model.Op
		if _, err := wal.Replay(vfs.Default, segs[0], func(r wal.Record) error {
			if len(batch) > 0 && batchTag(r.Key) != batchTag([]byte(batch[0].Key)) {
				models[sh].Apply(batch...)
				batch, logged[sh] = nil, logged[sh]+1
			}
			batch = append(batch, model.Op{Key: string(r.Key), Value: batchTag(r.Key)})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if len(batch) > 0 {
			models[sh].Apply(batch...)
			logged[sh]++
		}
	}

	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 12; trial++ {
		cdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cdir, markerName), []byte("4\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		cuts := make([]int, shards)
		for sh := 0; sh < shards; sh++ {
			switch trial {
			case 0:
				cuts[sh] = len(walData[sh]) // clean crash: everything durable
			case 1:
				cuts[sh] = 0 // crash before any WAL write
			default:
				cuts[sh] = rng.Intn(len(walData[sh]) + 1)
			}
			sdir := filepath.Join(cdir, fmt.Sprintf("shard-%03d", sh))
			if err := os.MkdirAll(sdir, 0o755); err != nil {
				t.Fatal(err)
			}
			surviving := walData[sh][:cuts[sh]]
			if trial%2 == 0 {
				// A store from before segments: one bare wal.log.
				if err := os.WriteFile(filepath.Join(sdir, "wal.log"), surviving, 0o644); err != nil {
					t.Fatal(err)
				}
				continue
			}
			// Frames are a u32 payload length, a u32 checksum and the
			// payload; split after a random whole frame.
			var bounds []int
			for off := 0; off+8 <= len(surviving); {
				off += 8 + int(binary.LittleEndian.Uint32(surviving[off:]))
				if off <= len(surviving) {
					bounds = append(bounds, off)
				}
			}
			split := 0
			if len(bounds) > 0 {
				split = bounds[rng.Intn(len(bounds))]
			}
			for seg, part := range [][]byte{surviving[:split], surviving[split:]} {
				name := fmt.Sprintf("wal.log.%06d", 7+seg)
				if err := os.WriteFile(filepath.Join(sdir, name), part, 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		s2, err := Open(cdir, Options{})
		if err != nil {
			t.Fatalf("trial %d: reopen: %v", trial, err)
		}
		if s2.ShardCount() != shards {
			t.Fatalf("trial %d: adopted %d shards", trial, s2.ShardCount())
		}
		for sh := 0; sh < shards; sh++ {
			n := models[sh].Prefix(t, reader{s2.Shard(sh)})
			if cuts[sh] == len(walData[sh]) && n != logged[sh] {
				t.Fatalf("trial %d shard %d: full WAL recovered %d/%d sub-batches", trial, sh, n, logged[sh])
			}
		}
		s2.Close()
	}
}

// TestStoreRaceShards4 is the -race suite for the sharded store: mixed
// Put/Delete/cross-shard Write against Get/Scan on 4 shards while tiny
// memtables force constant flushes and per-shard minor compactions churn
// every shard's table set.
func TestStoreRaceShards4(t *testing.T) {
	// The 4 KiB per-shard memtable against 4 writers × 60 keys × ~300-byte
	// values keeps every shard flushing (the key set splits 4 ways, and
	// overwrites of live keys do not grow a memtable).
	s := openStore(t, 4, lsm.Options{
		MemtableBytes: 4 << 10,
		AutoCompact:   sizeTiered,
	})

	const (
		writers      = 4
		opsPerWriter = 180
		keysPer      = 60
	)
	var (
		wg      sync.WaitGroup
		auxWG   sync.WaitGroup
		stop    atomic.Bool
		testErr atomic.Value
	)
	fail := func(err error) { testErr.CompareAndSwap(nil, err) }

	m := model.New()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One write in seven is a cross-shard batch, one op in seven a
			// delete.
			mix := model.Mix{Prefix: fmt.Sprintf("w%d-", w), Keys: keysPer, Delete: 1.0 / 7, Batch: 1.0 / 7, Pad: 256}
			for _, op := range model.Stream(int64(w), opsPerWriter, mix) {
				if err := write(s, op); err != nil {
					fail(fmt.Errorf("writer %d: %w", w, err))
					return
				}
				m.Apply(op...)
			}
		}(w)
	}

	for r := 0; r < 2; r++ {
		auxWG.Add(1)
		go func(r int) {
			defer auxWG.Done()
			for i := 0; !stop.Load(); i++ {
				key := fmt.Sprintf("w%d-key-%04d", i%writers, i%keysPer)
				if _, err := s.GetContext(context.Background(), []byte(key)); err != nil && !errors.Is(err, lsm.ErrNotFound) {
					fail(fmt.Errorf("reader %d: %w", r, err))
					return
				}
			}
		}(r)
	}
	auxWG.Add(1)
	go func() {
		defer auxWG.Done()
		for !stop.Load() {
			prev := ""
			err := s.RangeContext(context.Background(), nil, nil, func(k, v []byte) error {
				if string(k) <= prev {
					return fmt.Errorf("scan out of order: %q after %q", k, prev)
				}
				prev = string(k)
				return nil
			})
			if err != nil {
				fail(fmt.Errorf("scanner: %w", err))
				return
			}
		}
	}()

	wg.Wait()
	stop.Store(true)
	auxWG.Wait()
	if err, _ := testErr.Load().(error); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Flushes == 0 {
		t.Error("stress never flushed: memtable threshold not exercised")
	}
	if st.MinorCompactions == 0 {
		t.Error("stress never merged: no minor compaction overlapped the reads")
	}
	model.Check(t, reader{s}, m)
}

// TestStoreShardMarker covers the persisted-shard-count contract: the
// count is fixed at creation, adopted on reopen with Shards=0, enforced on
// mismatch; a one-shard store is the lsm.DB layout with no marker, so a
// flushed lsm.DB directory opens as one shard and refuses re-sharding; and
// a marked one-shard layout still opens.
func TestStoreShardMarker(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutContext(context.Background(), []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(dir, Options{Shards: 5}); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	s2, err := Open(dir, Options{}) // adopt
	if err != nil {
		t.Fatal(err)
	}
	if s2.ShardCount() != 3 {
		t.Fatalf("adopted %d shards, want 3", s2.ShardCount())
	}
	if v, err := s2.GetContext(context.Background(), []byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get after adopt = %q, %v", v, err)
	}
	s2.Close()

	// A fresh one-shard store, by default or asked for, is the lsm.DB
	// layout: no marker, and the directory reopens with plain lsm.Open.
	for _, shards := range []int{0, 1} {
		dir := t.TempDir()
		s, err := Open(dir, Options{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutContext(context.Background(), []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, markerName)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("Shards=%d: a one-shard store wrote a marker (%v)", shards, err)
		}
		db, err := lsm.Open(dir, lsm.Options{})
		if err != nil {
			t.Fatalf("Shards=%d: lsm.Open of a one-shard store: %v", shards, err)
		}
		if v, err := db.GetContext(context.Background(), []byte("k")); err != nil || string(v) != "v" {
			t.Fatalf("Shards=%d: lsm.Open Get = %q, %v", shards, v, err)
		}
		db.Close()
	}

	// A flushed lsm.DB opens as one shard rooted at its directory, and
	// re-sharding it is refused.
	plain := t.TempDir()
	db, err := lsm.Open(plain, lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutContext(context.Background(), []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if _, err := Open(plain, Options{Shards: 2}); err == nil {
		t.Fatal("sharding over an unsharded store accepted")
	}
	one, err := Open(plain, Options{})
	if err != nil {
		t.Fatalf("opening an lsm.DB directory: %v", err)
	}
	if one.ShardCount() != 1 {
		t.Fatalf("lsm.DB directory opened as %d shards", one.ShardCount())
	}
	if v, err := one.GetContext(context.Background(), []byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get through the store = %q, %v", v, err)
	}
	if err := one.Close(); err != nil {
		t.Fatal(err)
	}

	// A marked one-shard layout — SHARDS=1 beside shard-000 — keeps opening
	// there, by default and with the count asked for.
	marked := t.TempDir()
	db, err = lsm.Open(filepath.Join(marked, "shard-000"), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutContext(context.Background(), []byte("k"), []byte("in shard-000")); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if err := os.WriteFile(filepath.Join(marked, markerName), []byte("1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1} {
		s, err := Open(marked, Options{Shards: shards})
		if err != nil {
			t.Fatalf("Shards=%d over a marked one-shard store: %v", shards, err)
		}
		if v, err := s.GetContext(context.Background(), []byte("k")); s.ShardCount() != 1 || err != nil || string(v) != "in shard-000" {
			t.Fatalf("Shards=%d: %d shards, Get = %q, %v", shards, s.ShardCount(), v, err)
		}
		s.Close()
	}

	if _, err := Open(t.TempDir(), Options{Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

// TestStoreAdoptsWALOnlyLegacyDB covers the nastiest unsharded shape: an
// lsm.DB that never flushed, so its acknowledged data lives only in its WAL
// and no MANIFEST exists. Open must refuse to shard over it — a fresh
// sharded store there would strand the writes — and a one-shard open must
// replay the WAL.
func TestStoreAdoptsWALOnlyLegacyDB(t *testing.T) {
	dir := t.TempDir()
	db, err := lsm.Open(dir, lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutContext(context.Background(), []byte("unflushed"), []byte("survives")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil { // no Flush: WAL only, no MANIFEST
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("precondition: MANIFEST unexpectedly present (%v)", err)
	}

	if s, err := Open(dir, Options{Shards: 2}); err == nil {
		s.Close()
		t.Fatal("sharding over a WAL-only lsm.DB accepted")
	}
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.ShardCount() != 1 {
		t.Fatalf("WAL-only lsm.DB opened as %d shards", s.ShardCount())
	}
	if v, err := s.GetContext(context.Background(), []byte("unflushed")); err != nil || string(v) != "survives" {
		t.Fatalf("Get(unflushed) = %q, %v; WAL-only data lost", v, err)
	}
}

// TestStoreStatsAggregation checks that Stats sums per-shard counters and
// ShardStats exposes the breakdown, and that a cross-shard batch really
// commits through multiple shard pipelines.
func TestStoreStatsAggregation(t *testing.T) {
	s := openStore(t, 4, lsm.Options{})
	var b lsm.WriteBatch
	const n = 64
	for i := 0; i < n; i++ {
		b.Put([]byte(fmt.Sprintf("key-%04d", i)), []byte("v"))
	}
	if err := s.WriteContext(context.Background(), &b); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.GroupedWrites != n {
		t.Errorf("aggregate GroupedWrites = %d, want %d", st.GroupedWrites, n)
	}
	per := s.ShardStats()
	if len(per) != 4 {
		t.Fatalf("ShardStats returned %d entries", len(per))
	}
	shardsWithWrites, sum := 0, uint64(0)
	for _, ss := range per {
		sum += ss.GroupedWrites
		if ss.GroupedWrites > 0 {
			shardsWithWrites++
		}
	}
	if sum != st.GroupedWrites {
		t.Errorf("per-shard GroupedWrites sum %d != aggregate %d", sum, st.GroupedWrites)
	}
	if shardsWithWrites < 2 {
		t.Errorf("cross-shard batch landed on %d shards; want the split to fan out", shardsWithWrites)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Tables != shardsWithWrites {
		t.Errorf("aggregate Tables = %d, want %d (one sstable per written shard)", st.Tables, shardsWithWrites)
	}

	// Filter counters aggregate too: probing absent keys after the flush
	// drives Bloom negatives on some shard. The probes must fall inside
	// the tables' key range — key-range pruning rejects out-of-bounds keys
	// before the Bloom filter is ever consulted.
	for i := 0; i < 200; i++ {
		if _, err := s.GetContext(context.Background(), []byte(fmt.Sprintf("key-%04d-absent", i))); !errors.Is(err, lsm.ErrNotFound) {
			t.Fatal(err)
		}
	}
	st = s.Stats()
	if st.FilterNegatives == 0 {
		t.Error("no Bloom-filter negatives recorded for absent-key probes")
	}
}

// TestStoreRouterBalance checks the Placement router spreads realistic keys
// roughly evenly over shards — the property that makes per-shard pipelines
// scale.
func TestStoreRouterBalance(t *testing.T) {
	s := openStore(t, 8, lsm.Options{})
	counts := make([]int, 8)
	const keys = 20000
	for i := 0; i < keys; i++ {
		counts[s.ShardFor([]byte(fmt.Sprintf("user%08d", i)))]++
	}
	for sh, c := range counts {
		share := float64(c) / keys
		if share < 0.06 || share > 0.20 {
			t.Errorf("shard %d owns %.1f%% of keys; want roughly 12.5%%", sh, share*100)
		}
	}
}

// TestShardPlacementPinned: the shard a key lands on at 4 and 8 shards. A
// sharded directory's data sits where ShardFor put it, so a change here
// strands keys.
func TestShardPlacementPinned(t *testing.T) {
	want := map[string][2]int{
		"":                     {2, 2},
		"a":                    {1, 5},
		"key-1":                {3, 3},
		"foobar":               {1, 5},
		"user0000000000000001": {0, 4},
		"user00000000deadbeef": {0, 0},
	}
	for i, shards := range []int{4, 8} {
		s := openStore(t, shards, lsm.Options{})
		for key, w := range want {
			if got := s.ShardFor([]byte(key)); got != w[i] {
				t.Errorf("%d shards: ShardFor(%q) = %d, want %d", shards, key, got, w[i])
			}
		}
	}
}

// TestOnlyTheFailingShardDegrades fails a WAL fsync in one shard of a
// four-shard store: the write routed there fails and later writes there
// get ErrReadOnly, while the other three shards keep acknowledging writes
// and ShardStats reports ReadOnly for the failing shard alone.
func TestOnlyTheFailingShardDegrades(t *testing.T) {
	const shards, bad = 4, 2
	dir := t.TempDir()
	fault := vfs.NewFault(vfs.Default, 1)
	s, err := Open(dir, Options{Shards: shards, Options: lsm.Options{FS: fault, SyncWAL: true}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	badDir := filepath.Join(dir, fmt.Sprintf("shard-%03d", bad)) + string(filepath.Separator)
	fault.SetPathFilter(func(path string) bool { return strings.HasPrefix(path, badDir) })
	fault.FailNthSync(1)

	ctx := context.Background()
	// keys[i] holds two keys ShardFor routes to shard i.
	keys := make([][][]byte, shards)
	for i := 0; ; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		if sh := s.ShardFor(k); len(keys[sh]) < 2 {
			keys[sh] = append(keys[sh], k)
		}
		full := true
		for _, ks := range keys {
			full = full && len(ks) == 2
		}
		if full {
			break
		}
	}
	if err := s.PutContext(ctx, keys[bad][0], []byte("v")); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("write to the failing shard = %v, want the injected fsync error", err)
	}
	if err := s.PutContext(ctx, keys[bad][1], []byte("v")); !errors.Is(err, lsm.ErrReadOnly) {
		t.Fatalf("later write to the failing shard = %v, want ErrReadOnly", err)
	}
	m := model.New()
	for sh, ks := range keys {
		if sh == bad {
			continue
		}
		for _, k := range ks {
			if err := s.PutContext(ctx, k, []byte("v")); err != nil {
				t.Fatalf("write to healthy shard %d = %v", sh, err)
			}
			m.Apply(model.Op{Key: string(k), Value: "v"})
		}
	}
	for sh, st := range s.ShardStats() {
		if st.ReadOnly != (sh == bad) {
			t.Fatalf("shard %d: ReadOnly = %v, want %v", sh, st.ReadOnly, sh == bad)
		}
	}
	if !s.Stats().ReadOnly {
		t.Fatal("store Stats().ReadOnly = false with a read-only shard")
	}
	m.Fail(model.Op{Key: string(keys[bad][0]), Value: "v"})
	model.Check(t, reader{s}, m)
}

// ShardCount returns the number of shards.
func (s *Store) ShardCount() int { return len(s.shards) }

// Shard returns shard i's engine, for per-shard inspection (stats, tests).
func (s *Store) Shard(i int) *lsm.DB { return s.shards[i] }

// TestRecycledResetEmptiesSubBatches: the Reset of a cross-shard write's
// scratch empties every sub-batch (each WriteBatch.Reset bounds its arena;
// see lsm's TestRecycledResetBoundsBuffers) and forgets its context and
// error, and a second Put of the scratch panics.
func TestRecycledResetEmptiesSubBatches(t *testing.T) {
	s := openStore(t, 2, lsm.Options{})
	ws := s.writes.Get()
	for i := range ws.subs {
		ws.subs[i].batch.Put([]byte("key"), []byte("value"))
		ws.subs[i].ctx, ws.subs[i].err = context.Background(), errors.New("failed")
	}
	ws.Reset()
	for i, w := range ws.subs {
		if !w.batch.Empty() || w.ctx != nil || w.err != nil {
			t.Errorf("sub-batch %d after Reset: %d ops, ctx %v, err %v", i, w.batch.Len(), w.ctx, w.err)
		}
	}
	recycle.Poison.Store(true) // ws is dropped: nothing can take it in between
	defer recycle.Poison.Store(false)
	s.writes.Put(ws)
	defer func() {
		if recover() == nil {
			t.Error("a second Put of a cross-shard write's scratch did not panic")
		}
	}()
	s.writes.Put(ws)
}
