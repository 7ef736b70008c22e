// Chaos harness for the disk-fault resilience contract. Every test here
// drives an engine through a vfs.Fault filesystem and holds it to three
// promises, at each layer of the stack (lsm.DB, store.Store, kv.Engine):
//
//  1. No acknowledged write is ever lost: an operation that returned nil
//     under SyncWAL must read back after a crash and reopen.
//  2. Every error that escapes is typed: one of the canonical sentinels
//     (ErrNotFound, ErrClosed, ErrStalled, ErrReadOnly, ErrCorrupt,
//     ErrBatchTooLarge), a context error, or the injected fault itself
//     (vfs.ErrInjected, ENOSPC) — never an anonymous string.
//  3. A write that hit a durability failure is never silently retried
//     into an ack: after a failed WAL or manifest fsync the engine
//     degrades to read-only and says so.
//
// The external test package lets the same harness run through the public
// kv facade and the sharded store without an import cycle.
package lsm_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/lsm"
	"repro/internal/model"
	"repro/internal/store"
	"repro/internal/vfs"
	"repro/kv"
)

// typedErr reports whether err belongs to the engine's public error
// taxonomy. The chaos workload fails the test on any error for which this
// is false: callers must be able to program against every failure.
func typedErr(err error) bool {
	for _, sentinel := range []error{
		lsm.ErrNotFound, lsm.ErrClosed, lsm.ErrStalled, lsm.ErrReadOnly,
		lsm.ErrCorrupt, lsm.ErrBatchTooLarge,
		context.Canceled, context.DeadlineExceeded,
		vfs.ErrInjected, syscall.ENOSPC,
	} {
		if errors.Is(err, sentinel) {
			return true
		}
	}
	return false
}

// chaosKV is the slice of the engine API the workload exercises; adapters
// below bind it to lsm.DB, store.Store and kv.Engine.
type chaosKV interface {
	PutContext(ctx context.Context, key, value []byte) error
	DeleteContext(ctx context.Context, key []byte) error
	GetContext(ctx context.Context, key []byte) ([]byte, error)
	RangeContext(ctx context.Context, start, end []byte, fn func(key, value []byte) error) error
	Close() error
}

// chaosReader reads a chaosKV for model.Check, with ErrNotFound as not
// found.
type chaosReader struct{ chaosKV }

func (r chaosReader) Get(key []byte) ([]byte, bool, error) {
	v, err := r.GetContext(context.Background(), key)
	if errors.Is(err, lsm.ErrNotFound) {
		return nil, false, nil
	}
	return v, err == nil, err
}

func (r chaosReader) Scan(start, end []byte, fn func(key, value []byte) error) error {
	return r.RangeContext(context.Background(), start, end, fn)
}

// runChaos drives one seeded chaos round: a stream of writes against
// kvOpen under randomized faults, with a live read after every sixth, then a
// simulated crash (faults off, close with its error ignored), a reopen, and
// a model.Check of the recovered engine. A write that returned a typed
// error is recorded with Model.Fail: it may surface, but need not.
func runChaos(t *testing.T, seed int64, fault *vfs.Fault, kvOpen func() (chaosKV, error)) {
	t.Helper()
	ctx := context.Background()
	db, err := kvOpen()
	if err != nil {
		t.Fatalf("seed %d: open: %v", seed, err)
	}

	// Arm the faults only once the engine is up: the interesting failures
	// are the ones that race live traffic, and the recovery path gets its
	// own clean run at reopen below.
	fault.SetProb(vfs.OpWrite, 0.02)
	fault.SetProb(vfs.OpSync, 0.02)
	fault.SetProb(vfs.OpCreate, 0.02)
	fault.SetProb(vfs.OpRead, 0.01)
	fault.SetProb(vfs.OpRename, 0.01)
	fault.SetProb(vfs.OpRemove, 0.02)
	fault.SetProb(vfs.OpSyncDir, 0.01)

	m := model.New()
	stream := model.Stream(seed, 300, model.Mix{Keys: 64, Delete: 0.18, Pad: 53})
	for i, w := range stream {
		op := w[0]
		if op.Delete {
			err = db.DeleteContext(ctx, []byte(op.Key))
		} else {
			err = db.PutContext(ctx, []byte(op.Key), []byte(op.Value))
		}
		switch {
		case err == nil:
			m.Apply(op)
		case !typedErr(err):
			t.Fatalf("seed %d op %d: untyped write error: %v", seed, i, err)
		default:
			m.Fail(op)
		}
		if i%6 != 5 {
			continue
		}
		key := stream[i/2][0].Key
		val, err := db.GetContext(ctx, []byte(key))
		switch {
		case err == nil || errors.Is(err, lsm.ErrNotFound):
			if merr := m.Verify(key, string(val), err == nil); merr != nil {
				t.Fatalf("seed %d op %d: live read: %v", seed, i, merr)
			}
		case !typedErr(err):
			t.Fatalf("seed %d op %d: untyped get error: %v", seed, i, err)
		}
	}

	// Crash: stop injecting, abandon whatever close can or cannot do, and
	// recover from what actually reached the disk.
	fault.Disable()
	db.Close()
	db, err = kvOpen()
	if err != nil {
		t.Fatalf("seed %d: reopen after chaos: %v", seed, err)
	}
	defer db.Close()
	model.Check(t, chaosReader{db}, m)

	// The reopened engine must be fully writable again: degradation is a
	// property of an incarnation, not of the directory.
	if err := db.PutContext(ctx, []byte("post-recovery-probe"), []byte("ok")); err != nil {
		t.Fatalf("seed %d: write after recovery: %v", seed, err)
	}
	if got, err := db.GetContext(ctx, []byte("post-recovery-probe")); err != nil || string(got) != "ok" {
		t.Fatalf("seed %d: read back after recovery: %q, %v", seed, got, err)
	}
}

// chaosLSMOptions is the engine tuning every chaos round uses: synchronous
// WAL so nil means durable, a tiny memtable so flushes (and their manifest
// rewrites) happen constantly, and auto minor compaction so the compaction
// machinery runs under fault too.
func chaosLSMOptions(fault *vfs.Fault) lsm.Options {
	threshold, _ := lsm.PolicyByName("threshold", 4, 1)
	return lsm.Options{
		FS:            fault,
		SyncWAL:       true,
		MemtableBytes: 4 << 10,
		AutoCompact:   threshold,
		Seed:          1,
	}
}

func TestFaultChaosDB(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			fault := vfs.NewFault(vfs.Default, seed)
			runChaos(t, seed, fault, func() (chaosKV, error) {
				return lsm.Open(dir, chaosLSMOptions(fault))
			})
		})
	}
}

func TestFaultChaosStore(t *testing.T) {
	for seed := int64(11); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			fault := vfs.NewFault(vfs.Default, seed)
			runChaos(t, seed, fault, func() (chaosKV, error) {
				st, err := store.Open(dir, store.Options{Shards: 2, Options: chaosLSMOptions(fault)})
				if err != nil {
					return nil, err
				}
				return st, nil
			})
		})
	}
}

// engineChaos adapts the context-aware kv.Engine to the harness.
type engineChaos struct{ eng kv.Engine }

func (e engineChaos) PutContext(ctx context.Context, k, v []byte) error { return e.eng.Put(ctx, k, v) }
func (e engineChaos) DeleteContext(ctx context.Context, k []byte) error { return e.eng.Delete(ctx, k) }
func (e engineChaos) GetContext(ctx context.Context, k []byte) ([]byte, error) {
	return e.eng.Get(ctx, k)
}
func (e engineChaos) Close() error { return e.eng.Close() }
func (e engineChaos) RangeContext(ctx context.Context, start, end []byte, fn func(k, v []byte) error) error {
	it, err := e.eng.NewIterator(ctx, start, end)
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

func TestFaultChaosEngine(t *testing.T) {
	seed := int64(21)
	dir := t.TempDir()
	fault := vfs.NewFault(vfs.Default, seed)
	runChaos(t, seed, fault, func() (chaosKV, error) {
		eng, err := kv.Open(dir,
			kv.WithFS(fault),
			kv.WithSyncWAL(),
			kv.WithMemtableBytes(4<<10),
			kv.WithAutoCompact("threshold"))
		if err != nil {
			return nil, err
		}
		return engineChaos{eng}, nil
	})
}

// TestFaultChaosKillsDurabilityOnNthSync is the scripted heart of the
// durability contract: exactly one WAL fsync fails, and the engine must
// (a) error that write, (b) refuse every later write with ErrReadOnly,
// (c) keep serving reads, and (d) hand back every previously acknowledged
// write after a reopen. It must never ack a write whose sync failed.
func TestFaultChaosKillsDurabilityOnNthSync(t *testing.T) {
	dir := t.TempDir()
	fault := vfs.NewFault(vfs.Default, 1)
	open := func() (*lsm.DB, error) {
		return lsm.Open(dir, lsm.Options{FS: fault, SyncWAL: true})
	}
	db, err := open()
	if err != nil {
		t.Fatal(err)
	}
	m := model.New()
	for i := 0; i < 10; i++ {
		k, v := fmt.Sprintf("acked-%02d", i), fmt.Sprintf("v%d", i)
		if err := db.PutContext(context.Background(), []byte(k), []byte(v)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
		m.Put(k, v)
	}

	// With a large memtable no flush intervenes, so the next fsync the
	// engine issues is the WAL sync of the next commit group.
	fault.FailNthSync(1)
	if err := db.PutContext(context.Background(), []byte("doomed"), []byte("never-acked")); err == nil {
		t.Fatal("put with failed WAL fsync returned nil: acked a non-durable write")
	} else if !typedErr(err) {
		t.Fatalf("failed-sync write error is untyped: %v", err)
	}
	// It may or may not have reached the log before the failed sync.
	m.Fail(model.Op{Key: "doomed", Value: "never-acked"})

	if err := db.PutContext(context.Background(), []byte("after"), []byte("x")); !errors.Is(err, lsm.ErrReadOnly) {
		t.Fatalf("write after durability failure = %v, want ErrReadOnly", err)
	}
	if ro, cause := db.ReadOnly(); !ro || cause == nil {
		t.Fatalf("ReadOnly() = %v, %v after failed fsync", ro, cause)
	}
	if !db.Stats().ReadOnly {
		t.Fatal("Stats().ReadOnly = false after failed fsync")
	}
	// Reads ride through degradation.
	if got, err := db.GetContext(context.Background(), []byte("acked-03")); err != nil || string(got) != "v3" {
		t.Fatalf("read while read-only: %q, %v", got, err)
	}

	fault.Disable()
	db.Close()
	db, err = open()
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	model.Check(t, chaosReader{db}, m)
	if err := db.PutContext(context.Background(), []byte("fresh"), []byte("writable-again")); err != nil {
		t.Fatalf("reopened engine not writable: %v", err)
	}
}

// TestFaultENOSPCIsRetryable: running out of disk space must surface as a
// typed, retryable error — the WAL rollback keeps the log valid, so the
// engine does NOT degrade to read-only, and writes resume once space
// frees up. Nothing acked before or after the outage may be lost.
func TestFaultENOSPCIsRetryable(t *testing.T) {
	dir := t.TempDir()
	fault := vfs.NewFault(vfs.Default, 7)
	db, err := lsm.Open(dir, lsm.Options{FS: fault, SyncWAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutContext(context.Background(), []byte("before"), []byte("kept")); err != nil {
		t.Fatal(err)
	}
	m := model.New()
	m.Put("before", "kept")

	fault.SetDiskFullAfter(0)
	for i := 0; i < 3; i++ {
		err := db.PutContext(context.Background(), []byte("full"), []byte("wedged"))
		if err == nil {
			t.Fatal("put on a full disk returned nil")
		}
		if !errors.Is(err, syscall.ENOSPC) {
			t.Fatalf("put on full disk = %v, want ENOSPC", err)
		}
	}
	if ro, _ := db.ReadOnly(); ro {
		t.Fatal("ENOSPC with a clean WAL rollback must not poison durability")
	}

	fault.SetDiskFullAfter(-1) // space freed
	if err := db.PutContext(context.Background(), []byte("after"), []byte("resumed")); err != nil {
		t.Fatalf("write after space freed: %v", err)
	}
	m.Put("after", "resumed")

	fault.Disable()
	db.Close()
	db, err = lsm.Open(dir, lsm.Options{FS: fault, SyncWAL: true})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	// The writes the full disk refused were rolled back: none surfaces.
	model.Check(t, chaosReader{db}, m)
}

// TestBackgroundFlushFailureSemantics: a flush runs behind the writes, so its
// failures arrive late and at whoever next has to wait for the flusher.
//
// A table that cannot be created, written or synced leaves the frozen
// memtable and its WAL segment where they are: writes go on succeeding until
// the next memtable is full too, the writer that then has to wait gets the
// failure (typed: the injected fault itself), the DB is not read-only, every
// acknowledged key stays readable throughout, and once the fault clears a
// Flush goes through — after at most one more report of an attempt that
// failed while the fault was still on. A manifest save that fails is a
// durability failure, as it always was: the DB turns read-only, and says so
// to the writer that meets the flusher and to every write after it.
func TestBackgroundFlushFailureSemantics(t *testing.T) {
	isTable := func(path string) bool { return strings.HasSuffix(path, ".sst") }
	isManifest := func(path string) bool { return strings.Contains(path, "MANIFEST") }
	for _, tc := range []struct {
		name     string
		arm      func(f *vfs.Fault)
		readOnly bool
	}{
		{"table create", func(f *vfs.Fault) { f.SetPathFilter(isTable); f.SetProb(vfs.OpCreate, 1) }, false},
		{"table write", func(f *vfs.Fault) { f.SetPathFilter(isTable); f.SetProb(vfs.OpWrite, 1) }, false},
		{"table fsync", func(f *vfs.Fault) { f.SetPathFilter(isTable); f.SetProb(vfs.OpSync, 1) }, false},
		{"manifest fsync", func(f *vfs.Fault) { f.SetPathFilter(isManifest); f.SetProb(vfs.OpSync, 1) }, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fault := vfs.NewFault(vfs.Default, 1)
			opts := lsm.Options{FS: fault, SyncWAL: true, MemtableBytes: 8 << 10, Seed: 1}
			db, err := lsm.Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			key := func(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }
			val := func(i int) []byte { return []byte(fmt.Sprintf("value-%05d-%064d", i, i)) }
			m, acked := model.New(), 0
			// put writes key i and records it; a write that was handed a
			// flush failure may have been applied.
			put := func(i int) error {
				err := db.PutContext(context.Background(), key(i), val(i))
				if op := (model.Op{Key: string(key(i)), Value: string(val(i))}); err != nil {
					m.Fail(op)
				} else {
					m.Apply(op)
					acked = i + 1
				}
				return err
			}

			tc.arm(fault)
			// One memtable's worth of writes succeed whatever the flusher is
			// failing at; the failure surfaces within two more.
			var failure error
			for i := 0; i < 400 && failure == nil; i++ {
				failure = put(i)
			}
			if failure == nil || !errors.Is(failure, vfs.ErrInjected) {
				t.Fatalf("400 writes across several memtables under a %s fault ended with %v", tc.name, failure)
			}
			if acked < 50 {
				t.Fatalf("only %d writes were acknowledged before the failure surfaced", acked)
			}
			if st := db.Stats(); st.Flushes != 0 || st.Tables != 0 {
				t.Fatalf("%d flushes, %d tables under a %s fault", st.Flushes, st.Tables, tc.name)
			}
			model.Check(t, chaosReader{db}, m)
			if ro, cause := db.ReadOnly(); ro != tc.readOnly {
				t.Fatalf("ReadOnly() = %v (%v), want %v", ro, cause, tc.readOnly)
			}

			fault.Disable()
			if tc.readOnly {
				if err := db.PutContext(context.Background(), key(acked), val(acked)); !errors.Is(err, lsm.ErrReadOnly) {
					t.Fatalf("write after a failed manifest save = %v, want ErrReadOnly", err)
				}
				if err := db.Flush(); !errors.Is(err, lsm.ErrReadOnly) && !errors.Is(err, vfs.ErrInjected) {
					t.Fatalf("Flush after a failed manifest save = %v", err)
				}
			} else {
				// Still writable, and the flush goes through now.
				if err := put(acked); err != nil && !errors.Is(err, vfs.ErrInjected) {
					t.Fatalf("write after the fault cleared = %v", err)
				}
				err := db.Flush()
				if errors.Is(err, vfs.ErrInjected) {
					err = db.Flush() // the first one collected a stale failure
				}
				if err != nil {
					t.Fatalf("Flush after the fault cleared = %v", err)
				}
				if st := db.Stats(); st.Flushes == 0 || st.MemtableKeys != 0 {
					t.Fatalf("after the fault cleared: %d flushes, %d keys still in memtables", st.Flushes, st.MemtableKeys)
				}
			}
			model.Check(t, chaosReader{db}, m)

			// Crash and recover: nothing acknowledged was at risk.
			db.Close()
			db, err = lsm.Open(dir, opts)
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db.Close()
			model.Check(t, chaosReader{db}, m)
			if err := db.PutContext(context.Background(), []byte("fresh"), []byte("writable")); err != nil {
				t.Fatalf("reopened engine not writable: %v", err)
			}
		})
	}
}

// TestCorruptSSTableQuarantined flips a byte in a data block and checks
// the read path's reaction: a typed ErrCorrupt, the table renamed aside
// as .sst.corrupt and dropped from the live set (counted in Stats), and
// an engine that keeps serving — degraded, not dead.
func TestCorruptSSTableQuarantined(t *testing.T) {
	dir := t.TempDir()
	// Negative cache so every probe reads the disk: a cached block would
	// mask the corruption.
	opts := lsm.Options{BlockCacheBytes: -1}
	db, err := lsm.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("corrupt-key-%04d", i)) }
	const n = 200
	for i := 0; i < n; i++ {
		if err := db.PutContext(context.Background(), key(i), bytes.Repeat([]byte{byte('a' + i%26)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	ssts, err := filepath.Glob(filepath.Join(dir, "*.sst"))
	if err != nil || len(ssts) == 0 {
		t.Fatalf("expected an sstable on disk, got %v (%v)", ssts, err)
	}
	raw, err := os.ReadFile(ssts[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[16] ^= 0xff // inside the first data block; the footer stays intact
	if err := os.WriteFile(ssts[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err = lsm.Open(dir, opts)
	if err != nil {
		t.Fatalf("open with a corrupt data block (intact footer): %v", err)
	}
	defer db.Close()

	sawCorrupt := false
	for i := 0; i < n; i++ {
		_, err := db.GetContext(context.Background(), key(i))
		switch {
		case err == nil || errors.Is(err, lsm.ErrNotFound):
		case errors.Is(err, lsm.ErrCorrupt):
			sawCorrupt = true
		default:
			t.Fatalf("get %d: untyped error under corruption: %v", i, err)
		}
	}
	if !sawCorrupt {
		t.Fatal("no read hit the flipped block; corruption never surfaced")
	}

	st := db.Stats()
	if st.QuarantinedTables != 1 {
		t.Fatalf("Stats().QuarantinedTables = %d, want 1", st.QuarantinedTables)
	}
	if corrupted, _ := filepath.Glob(filepath.Join(dir, "*.sst.corrupt")); len(corrupted) != 1 {
		t.Fatalf("want exactly one quarantined .sst.corrupt file, found %v", corrupted)
	}
	if remaining, _ := filepath.Glob(filepath.Join(dir, "*.sst")); len(remaining) != 0 {
		t.Fatalf("corrupt table still live under its manifest name: %v", remaining)
	}

	// Quarantine degrades, it does not kill: the engine still writes and
	// reads, and the next open does not trip over the quarantined file.
	if err := db.PutContext(context.Background(), []byte("alive"), []byte("yes")); err != nil {
		t.Fatalf("write after quarantine: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = lsm.Open(dir, opts)
	if err != nil {
		t.Fatalf("reopen after quarantine: %v", err)
	}
	defer db.Close()
	if got, err := db.GetContext(context.Background(), []byte("alive")); err != nil || string(got) != "yes" {
		t.Fatalf("post-quarantine write after reopen: %q, %v", got, err)
	}
}

// TestQuarantineKeepsTableWhenManifestRewriteFails: a corrupt table whose
// quarantine cannot rewrite the manifest stays live under its own name,
// as the manifest on disk still names it, and the DB degrades to
// read-only. The read still reports ErrCorrupt, and nothing is counted as
// quarantined.
func TestQuarantineKeepsTableWhenManifestRewriteFails(t *testing.T) {
	dir := t.TempDir()
	fault := vfs.NewFault(vfs.Default, 1)
	opts := lsm.Options{FS: fault, BlockCacheBytes: -1}
	db, err := lsm.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("corrupt-key-%04d", i)) }
	const n = 200
	for i := 0; i < n; i++ {
		if err := db.PutContext(context.Background(), key(i), bytes.Repeat([]byte{'v'}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	ssts, err := filepath.Glob(filepath.Join(dir, "*.sst"))
	if err != nil || len(ssts) != 1 {
		t.Fatalf("want one sstable on disk, got %v (%v)", ssts, err)
	}
	raw, err := os.ReadFile(ssts[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[16] ^= 0xff // inside the first data block; the footer stays intact
	if err := os.WriteFile(ssts[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	manifest := filepath.Join(dir, "MANIFEST")
	before, err := os.ReadFile(manifest)
	if err != nil {
		t.Fatal(err)
	}

	db, err = lsm.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fault.SetPathFilter(func(path string) bool { return strings.HasSuffix(path, "MANIFEST.tmp") })
	fault.SetProb(vfs.OpCreate, 1)
	if _, err := db.GetContext(context.Background(), key(0)); !errors.Is(err, lsm.ErrCorrupt) {
		t.Fatalf("read of the corrupt block = %v, want ErrCorrupt", err)
	}
	if ro, cause := db.ReadOnly(); !ro || !errors.Is(cause, vfs.ErrInjected) {
		t.Fatalf("ReadOnly() = %v (%v), want read-only from the failed manifest rewrite", ro, cause)
	}
	name := filepath.Base(ssts[0])
	if infos := db.TableInfos(); len(infos) != 1 || infos[0].Name != name {
		t.Fatalf("TableInfos() = %+v, want %s still live", infos, name)
	}
	if after, err := os.ReadFile(manifest); err != nil || string(after) != string(before) {
		t.Fatalf("MANIFEST after the failed rewrite = %q, %v; want %q", after, err, before)
	}
	if _, err := os.Stat(ssts[0]); err != nil {
		t.Fatalf("table file renamed or gone: %v", err)
	}
	if corrupted, _ := filepath.Glob(filepath.Join(dir, "*.corrupt")); len(corrupted) != 0 {
		t.Fatalf("quarantined files %v after a failed rewrite", corrupted)
	}
	if st := db.Stats(); st.QuarantinedTables != 0 || st.Tables != 1 {
		t.Fatalf("Stats(): %d quarantined, %d tables; want 0 and 1", st.QuarantinedTables, st.Tables)
	}
	if err := db.PutContext(context.Background(), []byte("after"), []byte("x")); !errors.Is(err, lsm.ErrReadOnly) {
		t.Fatalf("write after the failed rewrite = %v, want ErrReadOnly", err)
	}
}

// TestFailedManifestDirSyncReopens fails the directory fsync of the
// manifest write that commits a flush or a major compaction. The rename
// before it has happened, so the manifest on disk names the new table even
// though the DB kept its old set and degraded to read-only. The new table's
// file must therefore stay until the next Open, which then reads every
// acknowledged write back.
func TestFailedManifestDirSyncReopens(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tables int // flushed before the fault is armed
		commit func(db *lsm.DB) error
	}{
		{"flush", 0, func(db *lsm.DB) error { return db.Flush() }},
		{"major compaction", 2, func(db *lsm.DB) error {
			_, err := db.MajorCompact("BT(I)", 2, 0)
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			fault := vfs.NewFault(vfs.Default, 1)
			db, err := lsm.Open(dir, lsm.Options{FS: fault})
			if err != nil {
				t.Fatal(err)
			}
			m := model.New()
			put := func(round int) {
				for i := 0; i < 50; i++ {
					op := model.Op{Key: fmt.Sprintf("k%03d", i), Value: fmt.Sprintf("v%d", round)}
					if err := db.PutContext(context.Background(), []byte(op.Key), []byte(op.Value)); err != nil {
						t.Fatal(err)
					}
					m.Apply(op)
				}
			}
			for round := 0; round < tc.tables; round++ {
				put(round)
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			if tc.tables == 0 {
				put(0)
			}
			fault.SetPathFilter(func(path string) bool { return path == dir })
			fault.SetProb(vfs.OpSyncDir, 1)
			if err := tc.commit(db); !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("%s under a failed manifest directory sync = %v", tc.name, err)
			}
			if ro, _ := db.ReadOnly(); !ro {
				t.Fatal("DB writable after a failed manifest directory sync")
			}
			model.Check(t, chaosReader{db}, m)
			db.Close()

			db, err = lsm.Open(dir, lsm.Options{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db.Close()
			model.Check(t, chaosReader{db}, m)
			if tc.tables > 0 {
				if n := len(db.TableInfos()); n != 1 {
					t.Fatalf("%d tables after reopen, want the merge's root alone", n)
				}
			}
		})
	}
}

// TestOpenMissingTableTypedCorrupt: a manifest referencing an sstable
// that no longer exists must fail Open with the typed ErrCorrupt, not a
// bare fs.ErrNotExist the caller cannot classify.
func TestOpenMissingTableTypedCorrupt(t *testing.T) {
	dir := t.TempDir()
	db, err := lsm.Open(dir, lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutContext(context.Background(), []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	ssts, _ := filepath.Glob(filepath.Join(dir, "*.sst"))
	if len(ssts) == 0 {
		t.Fatal("no sstable to delete")
	}
	if err := os.Remove(ssts[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := lsm.Open(dir, lsm.Options{}); !errors.Is(err, lsm.ErrCorrupt) {
		t.Fatalf("open with missing table = %v, want ErrCorrupt", err)
	}
}

// TestDoubleClose: the second Close reports ErrClosed and nothing worse.
func TestDoubleClose(t *testing.T) {
	db, err := lsm.Open(t.TempDir(), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.PutContext(context.Background(), []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := db.Close(); !errors.Is(err, lsm.ErrClosed) {
		t.Fatalf("second close = %v, want ErrClosed", err)
	}
}

// TestCloseRacesMajorCompaction closes the DB while concurrent writers
// keep flushing tables and a compactor keeps running major compactions over
// them. Whatever interleaving happens, writers and the compactor must only
// ever see typed errors and Close must return. (The -race runs in CI are the
// other half of this test.)
func TestCloseRacesMajorCompaction(t *testing.T) {
	db, err := lsm.Open(t.TempDir(), lsm.Options{MemtableBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if _, err := db.MajorCompact("BT(I)", 2, 0); err != nil {
				if !typedErr(err) {
					t.Errorf("compactor: untyped error racing close: %v", err)
				}
				if errors.Is(err, lsm.ErrClosed) {
					return
				}
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				k := []byte(fmt.Sprintf("w%d-key-%06d", w, i))
				if err := db.PutContext(context.Background(), k, bytes.Repeat([]byte{'x'}, 128)); err != nil {
					if !typedErr(err) {
						t.Errorf("writer %d: untyped error racing close: %v", w, err)
					}
					return
				}
			}
		}(w)
	}
	time.Sleep(50 * time.Millisecond)
	if err := db.Close(); err != nil {
		t.Fatalf("close racing major compaction: %v", err)
	}
	wg.Wait()
	if err := db.PutContext(context.Background(), []byte("late"), []byte("x")); !errors.Is(err, lsm.ErrClosed) {
		t.Fatalf("write after close = %v, want ErrClosed", err)
	}
}
