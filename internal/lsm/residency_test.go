package lsm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/iterator"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// Residency tests for the write-through, scan-resistant block cache: what a
// flush or merge writes is resident when its table is installed, a merge
// reads around the cache, carries residency from its inputs to its output
// and makes the room for it out of those inputs, and every abandoned table
// write takes its published blocks with it. They observe the cache through Sharded.Stats/Len and the device
// through sstReads.

// sstReads counts ReadAt calls and bytes on .sst files: table reads at the
// device, through the handle a table was opened with or the one it was
// created with, which its born Reader keeps reading through. It also counts
// the bytes written to them.
type sstReads struct {
	vfs.FS
	calls, bytes, written atomic.Int64
}

func (c *sstReads) Open(path string) (vfs.File, error) { return c.count(c.FS.Open(path)) }

func (c *sstReads) Create(path string) (vfs.File, error) { return c.count(c.FS.Create(path)) }

func (c *sstReads) count(f vfs.File, err error) (vfs.File, error) {
	if err != nil || !strings.HasSuffix(f.Name(), ".sst") {
		return f, err
	}
	return countedFile{f, c}, nil
}

type countedFile struct {
	vfs.File
	c *sstReads
}

func (f countedFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.c.calls.Add(1)
	f.c.bytes.Add(int64(n))
	return n, err
}

func (f countedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.written.Add(int64(n))
	return n, err
}

func residencyValue(i, gen int) []byte {
	return []byte(fmt.Sprintf("%08d-%04d-%s", i, gen, strings.Repeat("v", 86)))
}

// flushRange puts keys lo, lo+stride, … below hi at generation gen and
// flushes them into one table.
func flushRange(t testing.TB, db *DB, lo, hi, stride, gen int) {
	t.Helper()
	for i := lo; i < hi; i += stride {
		if err := db.PutContext(context.Background(), scanKey(i), residencyValue(i, gen)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
}

// readRange Gets the same keys and checks their generation, returning how
// many block-cache misses and table ReadAts that took.
func readRange(t testing.TB, db *DB, fsys *sstReads, lo, hi, stride, gen int) (misses uint64, reads int64) {
	t.Helper()
	_, misses0, _ := db.blockCache.Stats()
	reads0 := fsys.calls.Load()
	for i := lo; i < hi; i += stride {
		got, err := db.GetContext(context.Background(), scanKey(i))
		if err != nil || !bytes.Equal(got, residencyValue(i, gen)) {
			t.Fatalf("Get(%s) = %.16q, %v; want generation %d", scanKey(i), got, err, gen)
		}
	}
	_, misses1, _ := db.blockCache.Stats()
	return misses1 - misses0, fsys.calls.Load() - reads0
}

func sstFiles(t testing.TB, fsys vfs.FS, dir string) int {
	t.Helper()
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".sst") {
			n++
		}
	}
	return n
}

// TestStressFlushedTableIsResident: a flushed memtable is in the block cache
// when its table is installed, and its Reader is born with its index parsed.
// Reading every flushed key back misses the cache never and goes to the file
// not at all, and neither does a second pass.
func TestStressFlushedTableIsResident(t *testing.T) {
	fsys := &sstReads{FS: vfs.Default}
	db := openTestDB(t, Options{MemtableBytes: 64 << 20, FS: fsys})
	flushRange(t, db, 0, 3000, 1, 0)
	if db.blockCache.Len() < 50 {
		t.Fatalf("%d blocks resident after a 3000-entry flush", db.blockCache.Len())
	}
	if misses, reads := readRange(t, db, fsys, 0, 3000, 1, 0); misses != 0 || reads != 0 {
		t.Errorf("reading a flushed table: %d cache misses, %d ReadAt; want 0 and 0", misses, reads)
	}
	if misses, reads := readRange(t, db, fsys, 0, 3000, 1, 0); misses != 0 || reads != 0 {
		t.Errorf("second pass: %d cache misses, %d ReadAt", misses, reads)
	}
}

// TestStressMinorCompactionCarriesResidency: merging tables whose blocks are
// all resident leaves the output all resident — reading every merged key goes
// to the file not at all — and leaves no block of a dropped input behind: the
// cache holds exactly as many blocks as the output has, counted by reading
// the reopened store cold.
func TestStressMinorCompactionCarriesResidency(t *testing.T) {
	dir := t.TempDir()
	fsys := &sstReads{FS: vfs.Default}
	opts := Options{MemtableBytes: 64 << 20, FS: fsys}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 4; gen++ { // four tables over one key range
		flushRange(t, db, 0, 2000, 1, gen)
	}
	hits0, misses0, _ := db.blockCache.Stats()
	before := db.blockCache.Len()
	if _, ran, err := db.minorCompact(pickFirstN(4)); err != nil || !ran {
		t.Fatalf("MinorCompact: ran=%v err=%v", ran, err)
	}
	if hits, misses, _ := db.blockCache.Stats(); hits != hits0 || misses != misses0 {
		t.Errorf("the merge counted %d hits and %d misses as user reads", hits-hits0, misses-misses0)
	}
	after := db.blockCache.Len()
	if misses, reads := readRange(t, db, fsys, 0, 2000, 1, 3); misses != 0 || reads != 0 {
		t.Errorf("reading merged keys: %d cache misses, %d ReadAt; want 0 and 0", misses, reads)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.blockCache.Len() != 0 || db.Stats().Tables != 1 {
		t.Fatalf("reopened with %d blocks cached, %d tables", db.blockCache.Len(), db.Stats().Tables)
	}
	readRange(t, db, fsys, 0, 2000, 1, 3)
	if outBlocks := db.blockCache.Len(); after != outBlocks || before <= outBlocks {
		t.Errorf("%d blocks resident before the merge, %d after; the output has %d", before, after, outBlocks)
	}
}

// TestStressMergeDoesNotEvictBystanders: a merge makes room for its output
// out of its own input. The cache — one stripe — is exactly full of a
// bystander table, least recently read, and four resident tables about to be
// merged. After the minor merge the bystander has lost no block and the
// output is resident whole: reading every key of either goes to the file not
// at all. Before a merge spent its inputs, its output pushed out whatever was
// least recently used — here the bystander.
func TestStressMergeDoesNotEvictBystanders(t *testing.T) {
	const keys, tables = 2000, 5
	dir := t.TempDir()
	fsys := &sstReads{FS: vfs.Default}
	opts := Options{MemtableBytes: 64 << 20, FS: fsys}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < tables; lo++ { // the bystander, lo = 4, is flushed last: table 4
		flushRange(t, db, lo, keys, tables, 0)
	}
	_, _, tableBytes := db.blockCache.Stats() // every block was published
	blocks := db.blockCache.Len()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	opts.BlockCacheBytes = tableBytes
	if db, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, lo := range []int{4, 0, 1, 2, 3} {
		readRange(t, db, fsys, lo, keys, tables, 0)
	}
	if _, _, used := db.blockCache.Stats(); used != tableBytes || db.blockCache.Len() != blocks {
		t.Fatalf("cache holds %d of %d bytes, %d of %d blocks; want it exactly full (one stripe)",
			used, tableBytes, db.blockCache.Len(), blocks)
	}
	hits0, misses0, _ := db.blockCache.Stats()
	if _, ran, err := db.minorCompact(pickIndices(0, 1, 2, 3)); err != nil || !ran {
		t.Fatalf("MinorCompact: ran=%v err=%v", ran, err)
	}
	if hits, misses, _ := db.blockCache.Stats(); hits != hits0 || misses != misses0 {
		t.Errorf("the merge counted %d hits and %d misses as user reads", hits-hits0, misses-misses0)
	}
	if misses, reads := readRange(t, db, fsys, 4, keys, tables, 0); misses != 0 || reads != 0 {
		t.Errorf("bystander after the merge: %d cache misses, %d ReadAt", misses, reads)
	}
	var misses uint64
	var reads int64
	for lo := 0; lo < 4; lo++ {
		m, r := readRange(t, db, fsys, lo, keys, tables, 0)
		misses, reads = misses+m, reads+r
	}
	if misses != 0 || reads != 0 {
		t.Errorf("merged keys: %d cache misses, %d ReadAt; want 0 and 0", misses, reads)
	}
}

// TestBornTablesReadNothingBack: a flush or merge installs the Reader its
// Writer hands over, index parsed and data blocks published. A flush, a
// minor compaction and a BT(I) major compaction — every table in the store
// made by one of them — then a Get of every key and a full scan issue no
// ReadAt on any table until the DB is reopened; reading the reopened store
// does, so the counter sees these files.
func TestBornTablesReadNothingBack(t *testing.T) {
	dir := t.TempDir()
	fsys := &sstReads{FS: vfs.Default}
	opts := Options{MemtableBytes: 64 << 20, FS: fsys}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for gen := 0; gen < 4; gen++ {
		flushRange(t, db, 0, 2000, 1, gen)
	}
	if _, ran, err := db.minorCompact(pickFirstN(2)); err != nil || !ran {
		t.Fatalf("MinorCompact: ran=%v err=%v", ran, err)
	}
	for gen := 4; gen < 7; gen++ {
		flushRange(t, db, 0, 2000, 1, gen)
	}
	res, err := db.MajorCompact("BT(I)", 4, 1)
	if err != nil || len(res.StepStats) < 2 {
		t.Fatalf("MajorCompact: %+v, %v; want two merges or more", res, err)
	}
	readRange(t, db, fsys, 0, 2000, 1, 6)
	scanned := 0
	if err := db.RangeContext(context.Background(), nil, nil, func(k, v []byte) error { scanned++; return nil }); err != nil || scanned != 2000 {
		t.Fatalf("scan: %d entries, %v", scanned, err)
	}
	if n, b := fsys.calls.Load(), fsys.bytes.Load(); n != 0 {
		t.Errorf("building and reading the store: %d ReadAt, %d bytes; want none", n, b)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if readRange(t, db, fsys, 0, 2000, 1, 6); fsys.calls.Load() == 0 {
		t.Error("reading the reopened store counted no ReadAt")
	}
}

// TestAbortedMergeUnspendsItsInputs: a merge spends each resident input
// block it takes up, and when the merge then fails its inputs stay live, so
// their blocks must be live again too. The cache is one stripe, and the
// merge's write fails part-way (the device fills after 8 KiB). Afterwards,
// with the cache filled to the brim, a cold publication is refused rather
// than evict an input block, and a scan of every input misses the cache
// never. Left spent, the inputs' blocks would make way for the cold block.
func TestAbortedMergeUnspendsItsInputs(t *testing.T) {
	const cacheBytes = 200 << 10 // one stripe: three tables and a merge output fit
	fault := vfs.NewFault(vfs.Default, 1)
	db := openTestDB(t, Options{MemtableBytes: 64 << 20, BlockCacheBytes: cacheBytes, FS: fault})
	for gen := 0; gen < 3; gen++ {
		flushRange(t, db, 0, 300, 1, gen)
	}
	blocks := db.blockCache.Len()

	fault.SetPathFilter(func(path string) bool { return strings.HasSuffix(path, ".sst") })
	fault.SetDiskFullAfter(8 << 10)
	_, _, err := db.minorCompact(pickFirstN(3))
	fault.Disable()
	if !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("merge under a full device returned %v", err)
	}
	if n := db.blockCache.Len(); n != blocks || db.Stats().Tables != 3 {
		t.Fatalf("%d blocks resident after the abort, %d before; %d tables", n, blocks, db.Stats().Tables)
	}

	_, _, used := db.blockCache.Stats()
	db.blockCache.Publish(cache.Key{Table: 1 << 40}, make([]byte, cacheBytes-used), false)
	cold := cache.Key{Table: 1 << 40, Offset: 1}
	db.blockCache.Publish(cold, make([]byte, 4096), true)
	if b, ok := db.blockCache.Peek(cold); ok {
		b.Release()
		t.Error("a cold publication into the full cache was admitted")
	}
	_, misses0, _ := db.blockCache.Stats()
	if err := db.RangeContext(context.Background(), nil, nil, func(k, v []byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, misses, _ := db.blockCache.Stats(); misses != misses0 {
		t.Errorf("scanning the inputs after the aborted merge: %d cache misses", misses-misses0)
	}
}

// TestStressColdCompactionLeavesCacheAlone: compacting a cold store more than
// ten times the cache evicts nothing live, promotes nothing and counts
// nothing. The cache holds the pre-warmed blocks of one small hot table and
// has room to spare. A minor compaction of the cold tables (the hot one
// uninvolved) publishes into that room and no further: the hot table's blocks
// are all still there, read back without a miss. A major compaction of
// everything (the hot table's keys interleave with cold ones, so no output
// block is merged from resident inputs alone) spends the hot table with the
// rest of its inputs, stays within the cache's budget and, checked at the
// point where the merge outputs exist and the inputs are still live, has
// counted no lookup of its own as a user's.
func TestStressColdCompactionLeavesCacheAlone(t *testing.T) {
	const cacheBytes = 256 << 10
	fsys := &sstReads{FS: vfs.Default}
	var db *DB
	var hotBlocks int
	var hits0, misses0 uint64
	// uncounted fails if the compaction moved the hit and miss counters from
	// where warming left them, or the cache outgrew its budget.
	uncounted := func(when string) {
		t.Helper()
		hits, misses, used := db.blockCache.Stats()
		if hits != hits0 || misses != misses0 {
			t.Errorf("%s: compaction counted %d hits, %d misses", when, hits-hits0, misses-misses0)
		}
		if used > cacheBytes {
			t.Errorf("%s: cache holds %d bytes of %d", when, used, cacheBytes)
		}
	}
	beforeSwap := func() error { uncounted("major compaction, before the swap"); return nil }
	db = openTestDB(t, Options{MemtableBytes: 64 << 20, BlockCacheBytes: cacheBytes, FS: fsys})
	db.hookBeforeSwap = beforeSwap
	for tbl := 0; tbl < 6; tbl++ { // 6 × 5000 × ~130 B ≈ 3.9 MB, 15× the cache
		flushRange(t, db, tbl, 30000, 6, 0)
	}
	flushRange(t, db, 3, 30000, 60, 1) // the hot table: 500 keys scattered over the range
	// Start from an empty cache, then warm the hot table alone.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err := Open(db.dir, db.opts)
	if err != nil {
		t.Fatal(err)
	}
	db.hookBeforeSwap = beforeSwap
	t.Cleanup(func() { db.Close() })
	readRange(t, db, fsys, 3, 30000, 60, 1)
	hotBlocks = db.blockCache.Len()
	hits0, misses0, _ = db.blockCache.Stats()
	if hotBlocks == 0 || hotBlocks*sstable.BlockSize > cacheBytes/2 {
		t.Fatalf("hot table warmed %d blocks into a %d-byte cache", hotBlocks, cacheBytes)
	}
	if sz := db.Stats().TableBytes; sz < 10*cacheBytes {
		t.Fatalf("store is %d bytes, want at least ten times the %d-byte cache", sz, cacheBytes)
	}

	// Tables are oldest first: index 6 is the hot table.
	if _, ran, err := db.minorCompact(pickIndices(0, 1, 2)); err != nil || !ran {
		t.Fatalf("MinorCompact: ran=%v err=%v", ran, err)
	}
	uncounted("minor compaction of cold tables")
	if n := db.blockCache.Len(); n < hotBlocks {
		t.Errorf("%d blocks resident after the cold merge, fewer than the hot table's %d", n, hotBlocks)
	}
	if misses, reads := readRange(t, db, fsys, 3, 30000, 60, 1); misses != 0 || reads != 0 {
		t.Errorf("hot keys after the cold merge: %d cache misses, %d ReadAt", misses, reads)
	}
	hits0, misses0, _ = db.blockCache.Stats()

	if _, err := db.MajorCompact("BT(I)", 2, 1); err != nil {
		t.Fatal(err)
	}
	if db.Stats().Tables != 1 {
		t.Fatalf("%d tables after the major compaction", db.Stats().Tables)
	}
	readRange(t, db, fsys, 3, 30000, 60, 1)
}

// TestColdGetReadsOneFrame: a Get that misses the cache reads one block
// frame with one ReadAt, and no more than a frame: over the benchmark
// harness's key shape ("user" + 16 hex digits, 100 B values), in one table
// thirty times the cache, with its index born parsed so no chunk is read,
// every cold Get issues exactly one ReadAt of at most sstable.BlockSize
// bytes, and the mean is at most three 512 B cache granules, the most a
// cold read should move for one 120 B record.
func TestColdGetReadsOneFrame(t *testing.T) {
	const n, wantMean = 20000, 3 * 512
	fsys := &sstReads{FS: vfs.Default}
	db := openTestDB(t, Options{MemtableBytes: 64 << 20, BlockCacheBytes: 64 << 10, FS: fsys})
	ctx := context.Background()
	key := func(id uint64) []byte { return []byte(fmt.Sprintf("user%016x", id)) }
	rng := rand.New(rand.NewSource(49))
	ids := make([]uint64, n)
	val := bytes.Repeat([]byte("v"), 100)
	for i := range ids {
		ids[i] = rng.Uint64()
		if err := db.PutContext(ctx, key(ids[i]), val); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if sz := db.Stats().TableBytes; sz < 30*(64<<10) {
		t.Fatalf("table is %d bytes, want at least thirty times the cache", sz)
	}
	var cold, total int64
	for _, i := range rng.Perm(n) {
		_, misses0, _ := db.blockCache.Stats()
		calls0, bytes0 := fsys.calls.Load(), fsys.bytes.Load()
		if _, err := db.GetContext(ctx, key(ids[i])); err != nil {
			t.Fatal(err)
		}
		_, misses1, _ := db.blockCache.Stats()
		calls, read := fsys.calls.Load()-calls0, fsys.bytes.Load()-bytes0
		if misses1 == misses0 {
			if calls != 0 {
				t.Fatalf("Get served from the cache issued %d ReadAt", calls)
			}
			continue
		}
		if calls != 1 || read > sstable.BlockSize {
			t.Fatalf("cold Get: %d ReadAt of %d B; want one of at most %d", calls, read, sstable.BlockSize)
		}
		cold++
		total += read
	}
	if cold < n/2 {
		t.Fatalf("only %d of %d Gets missed the cache", cold, n)
	}
	if mean := total / cold; mean > wantMean {
		t.Errorf("cold Get reads %d B on average, want at most %d", mean, wantMean)
	}
	t.Logf("%d cold Gets read %d B on average", cold, total/cold)
}

// TestStressAbandonedTableWritesLeaveNoBlocks: every way a flush, a minor
// compaction or a scheduled merge can fail between creating its table and
// installing it — create, a write part-way through, the last write, sync,
// the manifest save — leaves the cache with the blocks it had, the
// directory with no orphan .sst, and the data readable. (There is no open
// after the write to fail: the Writer hands over the table's Reader.) A
// table is written through a 32 KiB buffer, so the "early-write" fault —
// the device fills after 20 KiB — is met inside fill, and the "write" fault
// — the device fills one byte short of what the operation writes when
// nothing fails — is met by the last table's buffer flush before its fsync.
//
// A flush is the flusher's: Flush returns the failure and the flusher tries
// again behind it. The retry is held at the hook until the abandoned
// attempt has been inspected, and must then succeed (except after a failed
// manifest save, which leaves the DB read-only).
func TestStressAbandonedTableWritesLeaveNoBlocks(t *testing.T) {
	isTable := func(path string) bool { return strings.HasSuffix(path, ".sst") }
	faults := []struct {
		name string
		arm  func(f *vfs.Fault, tableBytes int64)
	}{
		{"create", func(f *vfs.Fault, _ int64) { f.SetPathFilter(isTable); f.SetProb(vfs.OpCreate, 1) }},
		{"early-write", func(f *vfs.Fault, _ int64) { f.SetPathFilter(isTable); f.SetDiskFullAfter(20 << 10) }},
		{"write", func(f *vfs.Fault, tableBytes int64) { f.SetPathFilter(isTable); f.SetDiskFullAfter(tableBytes - 1) }},
		{"sync", func(f *vfs.Fault, _ int64) { f.SetPathFilter(isTable); f.FailNthSync(1) }},
		{"manifest", func(f *vfs.Fault, _ int64) {
			f.SetPathFilter(func(path string) bool { return strings.Contains(path, manifestName) })
			f.SetProb(vfs.OpSync, 1)
		}},
	}
	ops := []struct {
		name string
		run  func(db *DB) error
	}{
		{"flush", func(db *DB) error { return db.Flush() }},
		{"minor", func(db *DB) error {
			_, _, err := db.minorCompact(pickFirstN(3))
			return err
		}},
		{"major", func(db *DB) error {
			_, err := db.MajorCompact("BT(I)", 2, 1)
			return err
		}},
	}
	// setUp opens the fixture — three tables of the same keys and, for a
	// flush, a memtable of them — over a fault FS, with the flusher's second
	// build held at the hook until retry is closed.
	setUp := func(t *testing.T, flush bool) (db *DB, fault *vfs.Fault, fsys *sstReads, retry chan struct{}) {
		fault = vfs.NewFault(vfs.Default, 1)
		fsys = &sstReads{FS: fault}
		db = openTestDB(t, Options{MemtableBytes: 64 << 20, FS: fsys})
		for gen := 0; gen < 3; gen++ {
			flushRange(t, db, 0, 1500, 1, gen)
		}
		if flush {
			for i := 0; i < 1500; i++ {
				if err := db.PutContext(context.Background(), scanKey(i), residencyValue(i, 3)); err != nil {
					t.Fatal(err)
				}
			}
		}
		retry = make(chan struct{})
		var builds atomic.Int32
		db.mu.Lock()
		db.flushHook = func(p flushPoint) {
			if p == beforeBuild && builds.Add(1) == 2 {
				<-retry
			}
		}
		db.mu.Unlock()
		return db, fault, fsys, retry
	}
	for _, op := range ops {
		// What op writes to tables when nothing fails.
		db, _, fsys, retry := setUp(t, op.name == "flush")
		close(retry)
		written := fsys.written.Load()
		if err := op.run(db); err != nil {
			t.Fatal(err)
		}
		tableBytes := fsys.written.Load() - written

		for _, ft := range faults {
			t.Run(op.name+"/"+ft.name, func(t *testing.T) {
				db, fault, fsys, retry := setUp(t, op.name == "flush")
				blocks, tables := db.blockCache.Len(), db.Stats().Tables
				if blocks == 0 || tables != 3 {
					t.Fatalf("fixture: %d blocks resident, %d tables", blocks, tables)
				}

				ft.arm(fault, tableBytes)
				err := op.run(db)
				fault.Disable()
				if !errors.Is(err, vfs.ErrInjected) {
					t.Fatalf("%s under a %s fault returned %v", op.name, ft.name, err)
				}
				if n := db.blockCache.Len(); n != blocks {
					t.Errorf("%d blocks resident after the abort, %d before", n, blocks)
				}
				if n := sstFiles(t, fsys, db.dir); n != tables || db.Stats().Tables != tables {
					t.Errorf("%d .sst files and %d live tables after the abort, want %d", n, db.Stats().Tables, tables)
				}
				if db.Stats().CleanupFailures != 0 {
					t.Errorf("%d cleanup failures", db.Stats().CleanupFailures)
				}
				gen := 2
				if op.name == "flush" {
					gen = 3 // still in the memtable
				}
				readRange(t, db, fsys, 0, 1500, 1, gen)

				close(retry)
				if op.name != "flush" || ft.name == "manifest" {
					return
				}
				drainFlusher(t, db)
				if n := sstFiles(t, fsys, db.dir); n != tables+1 || db.Stats().Tables != tables+1 {
					t.Errorf("%d .sst files and %d live tables after the retry, want %d", n, db.Stats().Tables, tables+1)
				}
				readRange(t, db, fsys, 0, 1500, 1, gen)
			})
		}
	}
}

// TestTableBuildStartsNoGoroutine: a table build writes on the goroutine
// that asked for it — while fill runs, no goroutine has been started beside
// it.
func TestTableBuildStartsNoGoroutine(t *testing.T) {
	db := openTestDB(t, Options{})
	before, during := runtime.NumGoroutine(), 0
	rd, err := db.buildTable(db.allocTableName(), 1000, func(w *sstable.Writer) error {
		during = runtime.NumGoroutine()
		for i := 0; i < 1000; i++ {
			if err := w.Add(iterator.Entry{Key: scanKey(i), Value: residencyValue(i, 0), Seq: uint64(i + 1)}); err != nil {
				return err
			}
		}
		return w.Finish()
	})
	if err != nil {
		t.Fatal(err)
	}
	rd.Close()
	if during > before {
		t.Fatalf("%d goroutines before the build, %d while it filled its table", before, during)
	}
}

// TestStressResidency races everything that moves blocks: write-triggered
// flushes publishing into a cache of a few dozen blocks, live minor
// compactions peeking at their inputs, publishing their outputs and
// dropping tables, and readers pinning blocks by Get and by scan — with
// freed arrays poisoned, so a block recycled under a pin, or published from
// a buffer the writer has since reused, fails a value check. Run under
// -race.
func TestStressResidency(t *testing.T) {
	cache.PoisonFreed.Store(true)
	defer cache.PoisonFreed.Store(false)
	db := openTestDB(t, Options{
		MemtableBytes:   32 << 10,
		BlockCacheBytes: 160 << 10,
		AutoCompact:     mustPolicy(t, "size-tiered", 4),
	})
	const keys = 1500
	var latest [keys]atomic.Int64 // generation last acknowledged per key
	var wg sync.WaitGroup
	var stop atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer stop.Store(true)
		for gen := 1; gen <= 12; gen++ {
			for i := 0; i < keys; i++ {
				if err := db.PutContext(context.Background(), scanKey(i), residencyValue(i, gen)); err != nil {
					t.Errorf("Put: %v", err)
					return
				}
				latest[i].Store(int64(gen))
			}
		}
	}()
	check := func(i int, atLeast int64, got []byte) bool {
		var gotKey, gen int
		if _, err := fmt.Sscanf(string(got), "%08d-%04d-", &gotKey, &gen); err != nil ||
			gotKey != i || int64(gen) < atLeast || !bytes.Equal(got, residencyValue(i, gen)) {
			t.Errorf("key %d read %.20q…, want generation >= %d", i, got, atLeast)
			return false
		}
		return true
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for n := r; !stop.Load(); n += 7 {
				i := n % keys
				atLeast := latest[i].Load()
				got, err := db.GetContext(context.Background(), scanKey(i))
				if errors.Is(err, ErrNotFound) && atLeast == 0 {
					continue
				}
				if err != nil || !check(i, atLeast, got) {
					t.Errorf("Get(%d): %v", i, err)
					return
				}
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			err := db.RangeContext(context.Background(), nil, nil, func(k, v []byte) error {
				var i int
				if _, err := fmt.Sscanf(string(k), "key-%d", &i); err != nil || !check(i, 0, v) {
					return fmt.Errorf("scan at %q", k)
				}
				return nil
			})
			if err != nil {
				t.Errorf("Scan: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	st := db.Stats()
	if st.Flushes < 20 || st.MinorCompactions == 0 {
		t.Fatalf("stress ran %d flushes and %d minor compactions", st.Flushes, st.MinorCompactions)
	}
	if _, _, used := db.blockCache.Stats(); used > 160<<10 {
		t.Errorf("cache holds %d bytes, over its budget", used)
	}
}
