package kv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"sync"
	"testing"

	"repro/internal/keyhash"
	"repro/internal/model"
)

// backendCase builds a fresh engine of one backend flavor. The same test
// suite runs against all three: the single-partition embedded engine, the
// hash-sharded store, and a remote engine over a loopback server.
type backendCase struct {
	name string
	open func(t *testing.T, opts ...Option) Engine
}

func openLocal(t *testing.T, shards int, opts ...Option) Engine {
	t.Helper()
	eng, err := Open(t.TempDir(), append([]Option{WithShards(shards)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// serveLocal stands up a local engine of the given shard count behind a
// loopback kv.Server and returns the server's address.
func serveLocal(t *testing.T, shards int, opts ...Option) string {
	t.Helper()
	srv, err := NewServer(openLocal(t, shards, opts...))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return ln.Addr().String()
}

// openRemote stands up a sharded store behind a loopback kv.Server and
// dials it.
func openRemote(t *testing.T, opts ...Option) Engine {
	t.Helper()
	eng, err := Dial(serveLocal(t, 2, opts...))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

// startClusterNodes stands up three loopback nodes and returns their
// addresses. Opts configure the node engines, mirroring openRemote.
func startClusterNodes(t *testing.T, opts ...Option) []string {
	t.Helper()
	addrs := make([]string, 3)
	for i := range addrs {
		addrs[i] = serveLocal(t, 1, opts...)
	}
	return addrs
}

// openClusterEngine is a quorum cluster engine over three loopback nodes
// (N=3, W=2, R=2 defaults).
func openClusterEngine(t *testing.T, opts ...Option) Engine {
	t.Helper()
	eng, err := DialCluster(startClusterNodes(t, opts...))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng
}

func backendCases() []backendCase {
	return []backendCase{
		{"lsm", func(t *testing.T, opts ...Option) Engine { return openLocal(t, 1, opts...) }},
		{"store", func(t *testing.T, opts ...Option) Engine { return openLocal(t, 4, opts...) }},
		{"remote", openRemote},
		{"cluster", openClusterEngine},
	}
}

// forEachBackend runs fn as a subtest against every backend, each opened
// with opts.
func forEachBackend(t *testing.T, fn func(t *testing.T, eng Engine), opts ...Option) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			fn(t, bc.open(t, opts...))
		})
	}
}

// engineReader reads an Engine for model.Check, with ErrNotFound as not
// found.
type engineReader struct{ Engine }

func (r engineReader) Get(key []byte) ([]byte, bool, error) {
	v, err := r.Engine.Get(context.Background(), key)
	if errors.Is(err, ErrNotFound) {
		return nil, false, nil
	}
	return v, err == nil, err
}

func (r engineReader) Scan(start, end []byte, fn func(key, value []byte) error) error {
	it, err := r.NewIterator(context.Background(), start, end)
	if err != nil {
		return err
	}
	defer it.Close()
	for ; it.Valid(); it.Next() {
		if err := fn(it.Key(), it.Value()); err != nil {
			return err
		}
	}
	return it.Err()
}

func TestEngineCRUD(t *testing.T) {
	forEachBackend(t, func(t *testing.T, eng Engine) {
		ctx := context.Background()
		if err := eng.Put(ctx, []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		v, err := eng.Get(ctx, []byte("k"))
		if err != nil || string(v) != "v" {
			t.Fatalf("Get = %q, %v", v, err)
		}
		// Empty value is distinct from not-found on every backend.
		if err := eng.Put(ctx, []byte("empty"), nil); err != nil {
			t.Fatal(err)
		}
		if v, err := eng.Get(ctx, []byte("empty")); err != nil || len(v) != 0 {
			t.Fatalf("Get(empty) = %q, %v; want empty value, nil error", v, err)
		}
		if _, err := eng.Get(ctx, []byte("missing")); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(missing) = %v, want ErrNotFound", err)
		}
		if err := eng.Delete(ctx, []byte("k")); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.Get(ctx, []byte("k")); !errors.Is(err, ErrNotFound) {
			t.Fatalf("Get(deleted) = %v, want ErrNotFound", err)
		}
	})
}

func TestEngineBatchWrite(t *testing.T) {
	forEachBackend(t, func(t *testing.T, eng Engine) {
		ctx := context.Background()
		if err := eng.Put(ctx, []byte("doomed"), []byte("old")); err != nil {
			t.Fatal(err)
		}
		var b Batch
		for i := 0; i < 10; i++ {
			b.Put([]byte(fmt.Sprintf("b%02d", i)), []byte(fmt.Sprint(i)))
		}
		b.Delete([]byte("doomed"))
		if err := eng.Write(ctx, &b); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			v, err := eng.Get(ctx, []byte(fmt.Sprintf("b%02d", i)))
			if err != nil || string(v) != fmt.Sprint(i) {
				t.Fatalf("batch key %d = %q, %v", i, v, err)
			}
		}
		if _, err := eng.Get(ctx, []byte("doomed")); !errors.Is(err, ErrNotFound) {
			t.Fatalf("batched delete did not apply: %v", err)
		}
		// Empty and nil batches are no-ops.
		if err := eng.Write(ctx, nil); err != nil {
			t.Fatal(err)
		}
		if err := eng.Write(ctx, &Batch{}); err != nil {
			t.Fatal(err)
		}
	})
}

func TestEngineBatchTooLarge(t *testing.T) {
	forEachBackend(t, func(t *testing.T, eng Engine) {
		ctx := context.Background()
		var b Batch
		b.Put([]byte("big"), make([]byte, MaxBatchBytes+1))
		if err := eng.Write(ctx, &b); !errors.Is(err, ErrBatchTooLarge) {
			t.Fatalf("oversized Write = %v, want ErrBatchTooLarge", err)
		}
		if _, err := eng.Get(ctx, []byte("big")); !errors.Is(err, ErrNotFound) {
			t.Fatalf("rejected batch leaked: %v", err)
		}
	})
}

// fillKeys writes n keys k0000..k(n-1), values equal to the index.
func fillKeys(t *testing.T, eng Engine, n int) {
	t.Helper()
	ctx := context.Background()
	for i := 0; i < n; i++ {
		if err := eng.Put(ctx, []byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
}

// drain collects all remaining keys from an iterator, checking order.
func drain(t *testing.T, it Iterator) []string {
	t.Helper()
	var keys []string
	var prev []byte
	for ; it.Valid(); it.Next() {
		k := it.Key()
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("iterator out of order: %q after %q", k, prev)
		}
		prev = append(prev[:0], k...)
		keys = append(keys, string(k))
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterator error: %v", err)
	}
	return keys
}

func TestEngineIterator(t *testing.T) {
	forEachBackend(t, func(t *testing.T, eng Engine) {
		ctx := context.Background()
		fillKeys(t, eng, 1200) // spans several stream chunks
		it, err := eng.NewIterator(ctx, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		keys := drain(t, it)
		it.Close()
		if len(keys) != 1200 {
			t.Fatalf("full scan saw %d keys, want 1200", len(keys))
		}
		// Bounded range: start inclusive, end exclusive.
		it, err = eng.NewIterator(ctx, []byte("k0010"), []byte("k0020"))
		if err != nil {
			t.Fatal(err)
		}
		keys = drain(t, it)
		it.Close()
		if len(keys) != 10 || keys[0] != "k0010" || keys[9] != "k0019" {
			t.Fatalf("bounded range = %v", keys)
		}
	})
}

func TestEngineIteratorEdgeCases(t *testing.T) {
	forEachBackend(t, func(t *testing.T, eng Engine) {
		ctx := context.Background()
		fillKeys(t, eng, 50)

		t.Run("empty range", func(t *testing.T) {
			it, err := eng.NewIterator(ctx, []byte("zzz"), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			if it.Valid() {
				t.Fatalf("empty range is valid at %q", it.Key())
			}
			if err := it.Err(); err != nil {
				t.Fatalf("empty range err = %v", err)
			}
		})

		t.Run("reversed bounds", func(t *testing.T) {
			it, err := eng.NewIterator(ctx, []byte("k0040"), []byte("k0010"))
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			if it.Valid() {
				t.Fatal("reversed bounds yielded entries")
			}
			if err := it.Err(); err != nil {
				t.Fatalf("reversed bounds err = %v", err)
			}
		})

		t.Run("tombstone shadowing across shards", func(t *testing.T) {
			// Force the values into sstables, then delete a slice so the
			// tombstones sit in memtables shadowing sstable data — on the
			// sharded backends the deleted keys hash across every shard.
			if err := eng.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			for i := 10; i < 20; i++ {
				if err := eng.Delete(ctx, []byte(fmt.Sprintf("k%04d", i))); err != nil {
					t.Fatal(err)
				}
			}
			it, err := eng.NewIterator(ctx, []byte("k0005"), []byte("k0025"))
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			keys := drain(t, it)
			if len(keys) != 10 {
				t.Fatalf("shadowed range saw %d keys, want 10: %v", len(keys), keys)
			}
			for _, k := range keys {
				if k >= "k0010" && k < "k0020" {
					t.Fatalf("deleted key %s resurfaced", k)
				}
			}
		})

		t.Run("use after close", func(t *testing.T) {
			it, err := eng.NewIterator(ctx, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
			if it.Valid() {
				t.Fatal("closed iterator is valid")
			}
			it.Next()
			if err := it.Err(); !errors.Is(err, ErrClosed) {
				t.Fatalf("Next after Close: Err = %v, want ErrClosed", err)
			}
			if err := it.Close(); err != nil {
				t.Fatalf("double Close = %v", err)
			}
		})
	})
}

// TestEngineIteratorAfterEngineClose: iterators (and snapshots) created
// before Close return ErrClosed afterwards, on every backend.
func TestEngineIteratorAfterEngineClose(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			ctx := context.Background()
			eng := bc.open(t)
			fillKeys(t, eng, 10)
			it, err := eng.NewIterator(ctx, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			snap, err := eng.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Release()
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			it.Next()
			if err := it.Err(); !errors.Is(err, ErrClosed) {
				t.Errorf("iterator after engine close: Err = %v, want ErrClosed", err)
			}
			if _, err := snap.Get(ctx, []byte("k0001")); !errors.Is(err, ErrClosed) {
				t.Errorf("snapshot after engine close: Get = %v, want ErrClosed", err)
			}
			if _, err := eng.Get(ctx, []byte("k0001")); !errors.Is(err, ErrClosed) {
				t.Errorf("Get after engine close = %v, want ErrClosed", err)
			}
		})
	}
}

func TestEngineSnapshot(t *testing.T) {
	forEachBackend(t, func(t *testing.T, eng Engine) {
		ctx := context.Background()
		fillKeys(t, eng, 100)
		snap, err := eng.Snapshot(ctx)
		if err != nil {
			t.Fatal(err)
		}
		defer snap.Release()

		// Mutations after the snapshot are invisible through it.
		if err := eng.Delete(ctx, []byte("k0042")); err != nil {
			t.Fatal(err)
		}
		if err := eng.Put(ctx, []byte("k0007"), []byte("changed")); err != nil {
			t.Fatal(err)
		}
		if err := eng.Put(ctx, []byte("new"), []byte("x")); err != nil {
			t.Fatal(err)
		}

		if v, err := snap.Get(ctx, []byte("k0042")); err != nil || string(v) != "42" {
			t.Errorf("snapshot Get(deleted-after) = %q, %v; want 42", v, err)
		}
		if v, err := snap.Get(ctx, []byte("k0007")); err != nil || string(v) != "7" {
			t.Errorf("snapshot Get(overwritten-after) = %q, %v; want 7", v, err)
		}
		if _, err := snap.Get(ctx, []byte("new")); !errors.Is(err, ErrNotFound) {
			t.Errorf("snapshot sees post-snapshot key: %v", err)
		}
		it, err := snap.NewIterator(ctx, []byte("k0040"), []byte("k0045"))
		if err != nil {
			t.Fatal(err)
		}
		keys := drain(t, it)
		it.Close()
		want := []string{"k0040", "k0041", "k0042", "k0043", "k0044"}
		if len(keys) != len(want) {
			t.Fatalf("snapshot range = %v, want %v", keys, want)
		}
		for i := range want {
			if keys[i] != want[i] {
				t.Fatalf("snapshot range = %v, want %v", keys, want)
			}
		}

		snap.Release()
		if _, err := snap.Get(ctx, []byte("k0001")); !errors.Is(err, ErrClosed) {
			t.Errorf("released snapshot Get = %v, want ErrClosed", err)
		}
	})
}

func TestEngineFlushCompactStats(t *testing.T) {
	forEachBackend(t, func(t *testing.T, eng Engine) {
		ctx := context.Background()
		for gen := 0; gen < 3; gen++ {
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%04d", i+gen*100)
				if err := eng.Put(ctx, []byte(key), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if err := eng.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
		st, err := eng.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Tables == 0 || st.Flushes == 0 {
			t.Fatalf("stats after flushes: %+v", st)
		}
		info, err := eng.Compact(ctx, &CompactOptions{Strategy: "BT(I)", K: 2})
		if err != nil {
			t.Fatal(err)
		}
		if info.TablesBefore == 0 {
			t.Fatalf("compaction saw no tables: %+v", info)
		}
		st2, err := eng.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st2.MajorCompactions < 1 {
			t.Errorf("MajorCompactions = %d after Compact", st2.MajorCompactions)
		}
		// All data still present post-compaction.
		for i := 0; i < 400; i++ {
			if _, err := eng.Get(ctx, []byte(fmt.Sprintf("k%04d", i))); err != nil {
				t.Fatalf("key %d lost after compaction: %v", i, err)
			}
		}
	})
}

// TestCompactRefusesNonLiveStrategies: a per-call strategy the engine does
// not plan with, unknown or exact-set, fails with ErrConfig on every backend.
func TestCompactRefusesNonLiveStrategies(t *testing.T) {
	forEachBackend(t, func(t *testing.T, eng Engine) {
		ctx := context.Background()
		for i := 0; i < 2; i++ {
			if err := eng.Put(ctx, []byte(fmt.Sprintf("k%d", i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := eng.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
		for _, strategy := range []string{"nope", "LM", "SO(exact)"} {
			if _, err := eng.Compact(ctx, &CompactOptions{Strategy: strategy}); !errors.Is(err, ErrConfig) {
				t.Errorf("Compact(%q) = %v, want ErrConfig", strategy, err)
			}
		}
	})
}

// TestEmptyKeyIsConfigError: the empty key is invalid on every backend. A
// Put, a Delete or a Write holding one fails with ErrConfig, never the
// retryable ErrUnavailable, and the batch's valid put is not applied. A Get
// of the empty key is ErrNotFound.
func TestEmptyKeyIsConfigError(t *testing.T) {
	forEachBackend(t, func(t *testing.T, eng Engine) {
		ctx := context.Background()
		var b Batch
		b.Put([]byte("valid"), []byte("v"))
		b.Delete(nil)
		for name, err := range map[string]error{
			"Put(nil)":            eng.Put(ctx, nil, []byte("v")),
			"Delete([]byte{})":    eng.Delete(ctx, []byte{}),
			"Write(valid, empty)": eng.Write(ctx, &b),
		} {
			if !errors.Is(err, ErrConfig) || errors.Is(err, ErrUnavailable) {
				t.Errorf("%s = %v, want ErrConfig", name, err)
			}
		}
		if _, err := eng.Get(ctx, []byte("valid")); !errors.Is(err, ErrNotFound) {
			t.Errorf("the batch's valid put: Get = %v, want ErrNotFound", err)
		}
		if _, err := eng.Get(ctx, nil); !errors.Is(err, ErrNotFound) {
			t.Errorf("Get(nil) = %v, want ErrNotFound", err)
		}
	})
}

// TestEnginePurgeMatchesModel runs a short form of the lsm purge model
// test, rounds of overwrites and deletes, on every backend, with BT(I) minor
// compactions after the flushes a small memtable forces, and checks every
// read against the model after each round's flush. Every backend must
// report purged versions, or the test tests nothing.
func TestEnginePurgeMatchesModel(t *testing.T) {
	forEachBackend(t, func(t *testing.T, eng Engine) {
		ctx := context.Background()
		const rounds, perRound = 4, 80
		m := model.New()
		stream := model.Stream(7, rounds*perRound, model.Mix{Keys: 80, Delete: 0.4})
		for round := 0; round < rounds; round++ {
			for _, w := range stream[round*perRound : (round+1)*perRound] {
				op, err := w[0], error(nil)
				if op.Delete {
					err = eng.Delete(ctx, []byte(op.Key))
				} else {
					err = eng.Put(ctx, []byte(op.Key), []byte(op.Value))
				}
				if err != nil {
					t.Fatal(err)
				}
				m.Apply(op)
			}
			if err := eng.Flush(ctx); err != nil {
				t.Fatal(err)
			}
			model.Check(t, engineReader{eng}, m)
		}
		st, err := eng.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.VersionsPurged == 0 {
			t.Error("no merge purged a version: the test tests nothing")
		}
	}, WithAutoCompact("BT(I)"), WithMemtableBytes(256))
}

// TestEngineOpsAfterClose: every operation on a closed engine returns
// ErrClosed.
func TestEngineOpsAfterClose(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			ctx := context.Background()
			eng := bc.open(t)
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			if err := eng.Put(ctx, []byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
				t.Errorf("Put = %v, want ErrClosed", err)
			}
			if _, err := eng.Get(ctx, []byte("k")); !errors.Is(err, ErrClosed) {
				t.Errorf("Get = %v, want ErrClosed", err)
			}
			var b Batch
			b.Put([]byte("k"), []byte("v"))
			if err := eng.Write(ctx, &b); !errors.Is(err, ErrClosed) {
				t.Errorf("Write = %v, want ErrClosed", err)
			}
		})
	}
}

// TestEngineAdoptsExistingLayout: kv.Open with the default shard count
// reopens whatever the directory holds — a plain single-partition layout
// or a sharded store — and refuses a conflicting explicit count.
func TestEngineAdoptsExistingLayout(t *testing.T) {
	ctx := context.Background()
	t.Run("single partition", func(t *testing.T) {
		dir := t.TempDir()
		eng, err := Open(dir, WithShards(1))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Put(ctx, []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		eng, err = Open(dir) // no explicit count
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		if v, err := eng.Get(ctx, []byte("k")); err != nil || string(v) != "v" {
			t.Fatalf("reopened single-partition Get = %q, %v", v, err)
		}
		st, _ := eng.Stats(ctx)
		if st.Backend != "local" || st.Shards != 1 || st.PerShard != nil {
			t.Fatalf("adopted backend = %s/%d (%d per shard), want local/1 with no breakdown", st.Backend, st.Shards, len(st.PerShard))
		}
	})
	t.Run("sharded store", func(t *testing.T) {
		dir := t.TempDir()
		eng, err := Open(dir, WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Put(ctx, []byte("k"), []byte("v")); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		eng, err = Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st, _ := eng.Stats(ctx); st.Backend != "local" || st.Shards != 4 {
			t.Fatalf("adopted backend = %s/%d, want local/4", st.Backend, st.Shards)
		}
		if v, err := eng.Get(ctx, []byte("k")); err != nil || string(v) != "v" {
			t.Fatalf("reopened sharded Get = %q, %v", v, err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		// Conflicting explicit count is refused.
		if _, err := Open(dir, WithShards(2)); err == nil {
			t.Fatal("Open with conflicting shard count succeeded")
		}
	})
}

// TestOptionScoping: storage options are rejected by Dial and dial options
// by Open.
func TestOptionScoping(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", WithShards(2)); err == nil {
		t.Error("Dial accepted WithShards")
	}
	if _, err := Open(t.TempDir(), WithDialTimeout(1)); err == nil {
		t.Error("Open accepted WithDialTimeout")
	}
	if _, err := Open(t.TempDir(), WithAutoCompact("bogus")); err == nil {
		t.Error("Open accepted a bogus auto-compaction policy")
	}
}

// isolationPairs returns n key pairs {a_i, z_i} for the snapshot-isolation
// test. Both keys of a pair hash to the same shard at every shard count the
// suite uses (cross-shard batches are documented as having no common commit
// point, so the test stays inside what the sharded store promises), and
// every a sorts before, every z after, the isolationFillers filler keys —
// more than one stream chunk apart.
func isolationPairs(n int) (as, zs [][]byte) {
	for i := 0; i < n; i++ {
		a := []byte(fmt.Sprintf("a%03d", i))
		for j := 0; ; j++ {
			z := []byte(fmt.Sprintf("z%03d-%d", i, j))
			if keyhash.Placement(a)%4 == keyhash.Placement(z)%4 {
				as, zs = append(as, a), append(zs, z)
				break
			}
		}
	}
	return as, zs
}

const isolationFillers = 600

// TestEngineSnapshotIsolation: while writers commit two-key batches
// {a_i, z_i} <- n, every read view must show a_i == z_i — a snapshot through
// Get and through a full iteration, and a plain iterator in any single
// pass. Every backend is held to that: the remote one's iterator is one
// server-side scan and its snapshot one view the server holds, and the
// cluster's merge one such stream or view per node, each of which holds a
// replica's share of a batch whole or not at all.
func TestEngineSnapshotIsolation(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			ctx := context.Background()
			eng := bc.open(t)
			const pairs = 8
			as, zs := isolationPairs(pairs)
			commit := func(i, n int) error {
				var b Batch
				b.Put(as[i], []byte(fmt.Sprint(n)))
				b.Put(zs[i], []byte(fmt.Sprint(n)))
				return eng.Write(ctx, &b)
			}
			for i := 0; i < pairs; i++ {
				if err := commit(i, 0); err != nil {
					t.Fatal(err)
				}
			}
			var b Batch
			for i := 0; i < isolationFillers; i++ {
				b.Put([]byte(fmt.Sprintf("m%05d", i)), []byte("filler"))
			}
			if err := eng.Write(ctx, &b); err != nil {
				t.Fatal(err)
			}

			stop := make(chan struct{})
			var writers sync.WaitGroup
			for w := 0; w < 2; w++ {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					for n := 1; ; n++ {
						for i := w; i < pairs; i += 2 {
							select {
							case <-stop:
								return
							default:
							}
							if err := commit(i, n); err != nil {
								t.Errorf("writer %d: %v", w, err)
								return
							}
						}
					}
				}(w)
			}
			defer writers.Wait()
			defer close(stop)

			// check takes one view's reading of every pair.
			check := func(view string, got map[string]int) {
				t.Helper()
				for i := 0; i < pairs; i++ {
					a, aok := got[string(as[i])]
					z, zok := got[string(zs[i])]
					if !aok || !zok {
						t.Fatalf("%s: pair %d missing (a seen %v, z seen %v)", view, i, aok, zok)
					}
					if a != z {
						t.Fatalf("%s: pair %d torn: %s=%d %s=%d", view, i, as[i], a, zs[i], z)
					}
				}
			}
			// scan reads one full pass of it: pair keys into a map, and the
			// filler count as a sanity check that the pass crossed the gap.
			scan := func(view string, it Iterator) map[string]int {
				t.Helper()
				defer it.Close()
				got, fillers := make(map[string]int), 0
				for ; it.Valid(); it.Next() {
					if it.Key()[0] == 'm' {
						fillers++
						continue
					}
					n, err := strconv.Atoi(string(it.Value()))
					if err != nil {
						t.Fatalf("%s: %s holds %q, not a value any writer wrote", view, it.Key(), it.Value())
					}
					got[string(it.Key())] = n
				}
				if err := it.Err(); err != nil {
					t.Fatalf("%s: %v", view, err)
				}
				if fillers != isolationFillers {
					t.Fatalf("%s: saw %d fillers, want %d", view, fillers, isolationFillers)
				}
				return got
			}

			for round := 0; round < 8; round++ {
				snap, err := eng.Snapshot(ctx)
				if err != nil {
					t.Fatal(err)
				}
				viaGet := make(map[string]int)
				for _, k := range append(append([][]byte{}, as...), zs...) {
					v, err := snap.Get(ctx, k)
					if err != nil {
						t.Fatalf("snapshot Get(%s): %v", k, err)
					}
					if viaGet[string(k)], err = strconv.Atoi(string(v)); err != nil {
						t.Fatalf("snapshot Get(%s) = %q, not a value any writer wrote", k, v)
					}
				}
				check("snapshot Get", viaGet)
				it, err := snap.NewIterator(ctx, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				viaIter := scan("snapshot iterator", it)
				check("snapshot iterator", viaIter)
				for k, n := range viaGet {
					if viaIter[k] != n {
						t.Fatalf("one snapshot, two answers: %s = %d by Get, %d by iterator", k, n, viaIter[k])
					}
				}
				snap.Release()

				it, err = eng.NewIterator(ctx, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				check("live iterator", scan("live iterator", it))
			}
		})
	}
}
