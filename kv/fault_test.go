package kv

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/vfs"
)

// TestEngineReadOnlyAcrossBackends drives the durability-failure contract
// through every backend: after a failed WAL fsync the engine errors the
// doomed write, refuses later writes with ErrReadOnly (the sentinel must
// survive the wire on the remote backend), keeps serving reads, and
// reports the degradation through Stats.
func TestEngineReadOnlyAcrossBackends(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			if bc.name == "cluster" {
				// The shared fault injector fails exactly one fsync, so
				// exactly one of the three replicas refuses the write —
				// and the quorum (W=2) deliberately acknowledges anyway.
				// Surviving a single node's durability failure is the
				// cluster's contract, not a violation of this one.
				t.Skip("quorum replication masks a single replica's durability failure by design")
			}
			ctx := context.Background()
			fault := vfs.NewFault(vfs.Default, 1)
			eng := bc.open(t, WithFS(fault), WithSyncWAL())

			if err := eng.Put(ctx, []byte("acked"), []byte("safe")); err != nil {
				t.Fatal(err)
			}

			// Repeated writes to one key stay on one shard, so the scripted
			// sync failure and the writes that observe it meet on the same
			// WAL regardless of the backend's shard count.
			fault.FailNthSync(1)
			if err := eng.Put(ctx, []byte("acked"), []byte("doomed")); err == nil {
				t.Fatal("write with failed WAL fsync was acknowledged")
			}
			if err := eng.Put(ctx, []byte("acked"), []byte("late")); !errors.Is(err, ErrReadOnly) {
				t.Fatalf("write after durability failure = %v, want ErrReadOnly", err)
			}
			if err := eng.Delete(ctx, []byte("acked")); !errors.Is(err, ErrReadOnly) {
				t.Fatalf("delete after durability failure = %v, want ErrReadOnly", err)
			}

			// Reads ride through: the acked value is still served, and the
			// never-acked overwrite never became visible.
			got, err := eng.Get(ctx, []byte("acked"))
			if err != nil || !bytes.Equal(got, []byte("safe")) {
				t.Fatalf("read while read-only: %q, %v", got, err)
			}

			st, err := eng.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if !st.ReadOnly {
				t.Fatalf("Stats().ReadOnly = false on %s after durability failure", bc.name)
			}
		})
	}
}

// TestEngineCorruptStatsAcrossLayers seeds quarantine counters on the
// local backends and checks they aggregate (store sums its shards) and
// travel the wire (remote reports the serving store's counters).
func TestEngineCorruptStatsAcrossLayers(t *testing.T) {
	ctx := context.Background()
	fault := vfs.NewFault(vfs.Default, 2)
	eng := openLocal(t, 2, WithFS(fault), WithSyncWAL())

	// A removal fault while obsolete files are cleaned up is the cheapest
	// counter to provoke deterministically: fail every Remove, then force
	// flush + compaction traffic.
	fault.SetProb(vfs.OpRemove, 1)
	// Two flush rounds give every shard at least two tables, so the major
	// compaction below has inputs to merge and obsolete files to remove.
	for round := 0; round < 2; round++ {
		for i := 0; i < 64; i++ {
			k := []byte(fmt.Sprintf("k-%d-%03d", round, i))
			if err := eng.Put(ctx, k, bytes.Repeat([]byte{'v'}, 64)); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.Flush(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := eng.Compact(ctx, nil); err != nil {
		t.Fatal(err)
	}
	fault.Disable()
	st, err := eng.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.CleanupFailures == 0 {
		t.Fatal("failed removals during compaction were not counted in CleanupFailures")
	}
}

// TestShardedIteratorSurfacesCorruptTable: on a two-shard engine, a table
// that fails its checksum mid-scan ends an iterator — live or through a
// snapshot — with ErrCorrupt from Err, as it does on one shard, instead of
// a clean end after a short result.
func TestShardedIteratorSurfacesCorruptTable(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	eng, err := Open(dir, WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	for i := 0; i < n; i++ {
		if err := eng.Put(ctx, []byte(fmt.Sprintf("key-%06d", i)), bytes.Repeat([]byte{'v'}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Invert 64 bytes in the middle of one shard's table: inside a data
	// block, which only a read of that block notices.
	paths, err := filepath.Glob(filepath.Join(dir, "*", "*.sst"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no tables under %s: %v", dir, err)
	}
	data, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := len(data) / 2; i < len(data)/2+64; i++ {
		data[i] ^= 0xff
	}
	if err := os.WriteFile(paths[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if eng, err = Open(dir); err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	drain := func(what string, it Iterator, err error) {
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		defer it.Close()
		got := 0
		for ; it.Valid(); it.Next() {
			got++
		}
		if !errors.Is(it.Err(), ErrCorrupt) || got >= n {
			t.Errorf("%s read %d of %d entries and ended with %v, want ErrCorrupt", what, got, n, it.Err())
		}
	}
	it, err := eng.NewIterator(ctx, nil, nil)
	drain("NewIterator", it, err)
	sn, err := eng.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Release()
	it, err = sn.NewIterator(ctx, nil, nil)
	drain("Snapshot.NewIterator", it, err)
}
