package lsm

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/iterator"
	"repro/internal/sstable"
	"repro/internal/vfs"
	"repro/internal/ycsb"
)

func benchDB(b *testing.B, opts Options) *DB {
	b.Helper()
	db, err := Open(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { db.Close() })
	return db
}

func BenchmarkPut(b *testing.B) {
	db := benchDB(b, Options{})
	val := bytes.Repeat([]byte("v"), 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("key-%012d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
}

// reportGroupStats attaches the commit-pipeline shape to a write benchmark:
// how many records each group carried on average and how many fsyncs were
// paid per write (1.0 on the old one-fsync-per-record path, ~1/groupsize
// with group commit).
func reportGroupStats(b *testing.B, db *DB) {
	b.Helper()
	st := db.Stats()
	if st.GroupCommits > 0 {
		b.ReportMetric(float64(st.GroupedWrites)/float64(st.GroupCommits), "group-size")
	}
	if st.GroupedWrites > 0 {
		b.ReportMetric(float64(st.WALSyncs)/float64(st.GroupedWrites), "syncs/write")
	}
}

// BenchmarkPutParallel is the headline group-commit benchmark: concurrent
// writers (8 goroutines per proc) with the WAL fsync on or off. On the seed
// single-writer path every sync write paid its own fsync under the global
// lock; with the commit pipeline one leader fsyncs for the whole group.
//
// Run with:
//
//	go test -bench BenchmarkPutParallel -benchtime 2s -run XXX ./internal/lsm
func BenchmarkPutParallel(b *testing.B) {
	for _, sync := range []bool{false, true} {
		b.Run(fmt.Sprintf("sync=%v", sync), func(b *testing.B) {
			db := benchDB(b, Options{SyncWAL: sync, MemtableBytes: 256 << 20})
			val := bytes.Repeat([]byte("v"), 100)
			var ctr atomic.Int64
			b.SetParallelism(8) // ≥ 8 concurrent writers per proc
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				var key [16]byte
				for pb.Next() {
					i := ctr.Add(1)
					n := copy(key[:], "key-")
					for d := 11; d >= 0; d-- {
						key[n+d] = byte('0' + i%10)
						i /= 10
					}
					if err := db.PutContext(context.Background(), key[:], val); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "writes/sec")
			reportGroupStats(b, db)
		})
	}
}

// BenchmarkWriteBatch commits multi-record batches through
// DB.WriteContext: the explicit-batch face of the same pipeline.
func BenchmarkWriteBatch(b *testing.B) {
	for _, size := range []int{16, 128} {
		b.Run(fmt.Sprintf("batch=%d", size), func(b *testing.B) {
			db := benchDB(b, Options{MemtableBytes: 256 << 20})
			val := bytes.Repeat([]byte("v"), 100)
			var batch WriteBatch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch.Reset()
				for j := 0; j < size; j++ {
					batch.Put([]byte(fmt.Sprintf("key-%07d-%03d", i, j)), val)
				}
				if err := db.WriteContext(context.Background(), &batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*size)/b.Elapsed().Seconds(), "writes/sec")
			reportGroupStats(b, db)
		})
	}
}

func BenchmarkGetMixed(b *testing.B) {
	db := benchDB(b, Options{MemtableBytes: 256 << 10})
	const n = 20000
	val := bytes.Repeat([]byte("v"), 100)
	for i := 0; i < n; i++ {
		if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("key-%012d", i)), val); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.GetContext(context.Background(), []byte(fmt.Sprintf("key-%012d", i%n))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetDuringMajorCompaction measures read availability while a
// major compaction is running — the motivating number for the non-blocking
// design. For each iteration it builds a store with overlapping sstables,
// starts a major compaction in another goroutine, and samples Get latency
// until the compaction finishes: p99 stays at ordinary read latency.
//
// Run with:
//
//	go test -bench BenchmarkGetDuringMajorCompaction -benchtime 3x ./internal/lsm
func BenchmarkGetDuringMajorCompaction(b *testing.B) {
	const (
		tables      = 10
		keysPer     = 4000
		keyspace    = 12000
		valueBytes  = 256
		sampleEvery = 50 * time.Microsecond
	)
	var all []time.Duration
	var compactTotal time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := benchDB(b, Options{})
		val := bytes.Repeat([]byte("v"), valueBytes)
		for tab := 0; tab < tables; tab++ {
			for j := 0; j < keysPer; j++ {
				key := fmt.Sprintf("key-%06d", (tab*2711+j*7)%keyspace)
				if err := db.PutContext(context.Background(), []byte(key), val); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()

		done := make(chan error, 1)
		go func() {
			_, err := db.MajorCompact("BT(I)", 4, int64(i))
			done <- err
		}()

		compactStart := time.Now()
		sampling := true
		for sampling {
			select {
			case err := <-done:
				if err != nil {
					b.Fatal(err)
				}
				sampling = false
			default:
				key := fmt.Sprintf("key-%06d", len(all)*131%keyspace)
				t0 := time.Now()
				if _, err := db.GetContext(context.Background(), []byte(key)); err != nil && err != ErrNotFound {
					b.Fatal(err)
				}
				all = append(all, time.Since(t0))
				time.Sleep(sampleEvery)
			}
		}
		compactTotal += time.Since(compactStart)
	}
	if len(all) == 0 {
		b.Fatal("no Get completed while compaction ran: reads were fully blocked")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p50 := all[len(all)*50/100]
	p99 := all[min(len(all)*99/100, len(all)-1)]
	b.ReportMetric(float64(p50.Nanoseconds()), "get-p50-ns")
	b.ReportMetric(float64(p99.Nanoseconds()), "get-p99-ns")
	b.ReportMetric(float64(len(all))/compactTotal.Seconds(), "gets/sec-during-compaction")
}

// BenchmarkGetDuringFlush measures point-read tail latency while memtable
// flushes churn — the read-availability number for the lock-free read
// path. Each iteration fills a multi-megabyte memtable, kicks an explicit
// Flush on another goroutine, and samples Get latency until the flush
// completes. A read path that serves Gets under the store lock stalls
// every sample behind the flush's sstable write, so its p99 approaches the
// flush duration; a read path that never touches the store lock keeps p99
// at ordinary read latency.
//
// Run with:
//
//	go test -bench BenchmarkGetDuringFlush -benchtime 5x ./internal/lsm
func BenchmarkGetDuringFlush(b *testing.B) {
	const (
		keyspace   = 30000
		valueBytes = 512
	)
	var all []time.Duration
	var flushTotal time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := benchDB(b, Options{MemtableBytes: 256 << 20})
		val := bytes.Repeat([]byte("v"), valueBytes)
		for j := 0; j < keyspace; j++ {
			if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("key-%06d", j)), val); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()

		done := make(chan error, 1)
		go func() { done <- db.Flush() }()
		flushStart := time.Now()
		for sampling := true; sampling; {
			select {
			case err := <-done:
				if err != nil {
					b.Fatal(err)
				}
				sampling = false
			default:
				key := fmt.Sprintf("key-%06d", len(all)*131%keyspace)
				t0 := time.Now()
				if _, err := db.GetContext(context.Background(), []byte(key)); err != nil {
					b.Fatal(err)
				}
				all = append(all, time.Since(t0))
			}
		}
		flushTotal += time.Since(flushStart)
	}
	if len(all) == 0 {
		b.Fatal("no Get completed while flushes ran: reads were fully blocked")
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	p50 := all[len(all)*50/100]
	p99 := all[min(len(all)*99/100, len(all)-1)]
	b.ReportMetric(float64(p50.Nanoseconds()), "get-p50-ns")
	b.ReportMetric(float64(p99.Nanoseconds()), "get-p99-ns")
	// The worst sample is the one that was in flight when the flush took
	// the store lock: with a lock-free read path it is an ordinary read,
	// with a locked one it absorbs the whole flush duration.
	b.ReportMetric(float64(all[len(all)-1].Nanoseconds()), "get-pmax-ns")
	b.ReportMetric(float64(len(all))/flushTotal.Seconds(), "gets/sec-during-flush")
}

// BenchmarkMajorCompact compares real on-disk compaction across
// strategies: the LSM-engine analogue of Figure 7.
func BenchmarkMajorCompact(b *testing.B) {
	for _, strat := range []string{"SI", "SO", "BT(I)", "RANDOM"} {
		b.Run("strategy="+strat, func(b *testing.B) {
			val := bytes.Repeat([]byte("v"), 64)
			var lastIO uint64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				db := benchDB(b, Options{})
				for tab := 0; tab < 8; tab++ {
					for j := 0; j < 500; j++ {
						key := fmt.Sprintf("key-%05d", (tab*331+j)%2500)
						if err := db.PutContext(context.Background(), []byte(key), val); err != nil {
							b.Fatal(err)
						}
					}
					if err := db.Flush(); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				res, err := db.MajorCompact(strat, 2, int64(i))
				if err != nil {
					b.Fatal(err)
				}
				lastIO = res.BytesRead + res.BytesWritten
			}
			b.ReportMetric(float64(lastIO), "io_bytes")
		})
	}
}

// BenchmarkGetCold is the read path with every Get paying a block read,
// decode and in-block search against a flushed sstable: v3 with the block
// cache disabled; v3-thrash with a cache a twelfth the size of the table,
// so almost every Get misses, evicts and refills — the path where the
// allocation count shows whether misses land in recycled arrays.
//
// Run with:
//
//	go test -bench BenchmarkGetCold -run XXX ./internal/lsm
func BenchmarkGetCold(b *testing.B) {
	const n = 20000
	for _, tc := range []struct {
		name       string
		cacheBytes int
	}{{"v3", -1}, {"v3-thrash", 64 << 10}} {
		b.Run(tc.name, func(b *testing.B) {
			db := benchDB(b, Options{BlockCacheBytes: tc.cacheBytes})
			keys := make([][]byte, n)
			val := bytes.Repeat([]byte("v"), 16)
			for i := 0; i < n; i++ {
				keys[i] = []byte(fmt.Sprintf("key-%012d", i))
				if err := db.PutContext(context.Background(), keys[i], val); err != nil {
					b.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.GetContext(context.Background(), keys[(i*7919)%n]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func scanKey(i int) []byte { return []byte(fmt.Sprintf("key-%012d", i)) }

// scanFixture opens a DB holding `tables` flushed sstables of 2000 entries
// each over one shared key range, plus memEntries more in the memtable,
// interleaved with the tables' keys. Shared by the read-path allocation
// test and BenchmarkScanShort.
func scanFixture(tb testing.TB, tables, memEntries int) *DB {
	tb.Helper()
	db := openTestDB(tb, Options{MemtableBytes: 64 << 20})
	val := bytes.Repeat([]byte("v"), 100)
	for t := 0; t < tables; t++ {
		for i := 0; i < 2000; i++ {
			if err := db.PutContext(context.Background(), scanKey(i*8+t), val); err != nil {
				tb.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < memEntries; i++ {
		if err := db.PutContext(context.Background(), scanKey(i*2+7), val); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// BenchmarkScanShort is the read path's short range scan: a memtable near
// its default flush threshold (32 000 entries of ~130 bytes), four tables,
// fifty entries read from a start key that moves through the key space.
// What it guards is that set-up cost does not depend on how much the
// memtable holds.
//
// Run with:
//
//	go test -bench BenchmarkScanShort -run XXX ./internal/lsm
func BenchmarkScanShort(b *testing.B) {
	db := scanFixture(b, 4, 32000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		it, release, err := db.NewIterator(scanKey((i*7919)%16000), nil)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for ; n < 50 && it.Valid(); n++ {
			it.Next()
		}
		release()
		if n != 50 {
			b.Fatalf("scan read %d entries, want 50", n)
		}
	}
}

// BenchmarkPutAcrossRotations is the write path as one client sees it over
// many memtables: a Put stream over a permutation of the keys through a 1 MiB
// memtable with the BT(I) k=4 live picker on, so every ~8000th Put fills
// the memtable and each fourth of those is followed by a merge. One
// iteration is one Put; the run always spans at least 20 rotations. The
// mean is ns/op; what a mean hides — the Put that meets the flush — is
// reported as p99-us and max-ms over every Put timed.
//
// Run with:
//
//	go test -bench BenchmarkPutAcrossRotations -run XXX ./internal/lsm
func BenchmarkPutAcrossRotations(b *testing.B) {
	const memtable, minPuts = 1 << 20, 200_000
	policy, err := PolicyByName("BT(I)", 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	db := benchDB(b, Options{MemtableBytes: memtable, AutoCompact: policy})
	val := bytes.Repeat([]byte("v"), 100)
	n := b.N
	if n < minPuts {
		n = minPuts
	}
	lat := make([]time.Duration, n)
	key := make([]byte, 0, 16)
	b.ResetTimer()
	for i := 0; i < n; i++ {
		key = fmt.Appendf(key[:0], "key-%012d", i*7919%n)
		t0 := time.Now()
		if err := db.PutContext(context.Background(), key, val); err != nil {
			b.Fatal(err)
		}
		lat[i] = time.Since(t0)
	}
	b.StopTimer()
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	if st := db.Stats(); st.Flushes < 20 {
		b.Fatalf("only %d flushes", st.Flushes)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var sum time.Duration
	for _, d := range lat {
		sum += d
	}
	// b.N may be below the fixed floor: report the mean of what ran.
	b.ReportMetric(float64(sum.Nanoseconds())/float64(n), "ns/put")
	b.ReportMetric(float64(lat[n*99/100].Nanoseconds())/1e3, "p99-us")
	b.ReportMetric(float64(lat[n-1].Nanoseconds())/1e6, "max-ms")
}

// BenchmarkMergeFourWay is one merge as a major compaction's upper levels
// run it: four 9 MiB tables with interleaved keys into one, through
// buildTable (file, write path, fsync, reopen), reported as MB/s of input.
// The merge reads its inputs and writes its output in 32 KiB pieces on one
// goroutine, so -cpu 2 differs from -cpu 1 only by what the runtime and the
// garbage collector do beside it.
//
// Run with:
//
//	go test -bench BenchmarkMergeFourWay -cpu 1,2 -run XXX ./internal/lsm
func BenchmarkMergeFourWay(b *testing.B) {
	const tables, perTable = 4, 72_000 // ~9 MiB each at 100-byte values
	db := benchDB(b, Options{MemtableBytes: 64 << 20, BlockCacheBytes: 2 << 20})
	val := bytes.Repeat([]byte("v"), 100)
	for t := 0; t < tables; t++ {
		for i := 0; i < perTable; i++ {
			if err := db.PutContext(context.Background(), scanKey(i*tables+t), val); err != nil {
				b.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
	}
	db.mu.RLock()
	var inputs []*sstable.Reader
	var bytesIn uint64
	for _, th := range db.tables {
		inputs = append(inputs, th.rd)
		bytesIn += th.rd.FileSize()
	}
	db.mu.RUnlock()
	b.SetBytes(int64(bytesIn))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		name := fmt.Sprintf("bench-%06d.sst", i)
		rd, _, err := db.mergeTables(name, iterator.IsTombstone, inputs, false)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rd.Close()
		if err := db.fs.Remove(filepath.Join(db.dir, name)); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkUpdateHeavyCachePressure is bench/'s update_heavy workload at an
// eighth of its size, for the one thing that workload's device reads depend
// on: what the block cache keeps while live BT(I) k=4 merges rewrite tables
// beside the Gets. One iteration is a whole run — load, warm-up, then a
// zipfian stream of half Gets and half updates over 12 500 records with a
// 128 KiB memtable — against a cache of about nine tenths of the table bytes
// the store peaks at (cache/peak-table-bytes reports the ratio reached),
// which puts its miss rate where update_heavy's is: the cache overflows only
// while a merge holds both its inputs and its output. Table reads are
// counted at the file, Get misses at the cache, both over the measured phase
// only. Spending merge inputs took it from 40.0 to 30.0 B/op.
//
// Run with:
//
//	go test -bench BenchmarkUpdateHeavyCachePressure -benchtime 3x -run XXX ./internal/lsm
func BenchmarkUpdateHeavyCachePressure(b *testing.B) {
	const (
		records    = 12_500
		warmOps    = 50_000
		runOps     = 500_000
		cacheBytes = 9 << 19
	)
	policy, err := PolicyByName("BT(I)", 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	var readBytes, misses, peakBytes float64
	for i := 0; i < b.N; i++ {
		fsys := &sstReads{FS: vfs.Default}
		db := benchDB(b, Options{MemtableBytes: 128 << 10, BlockCacheBytes: cacheBytes, AutoCompact: policy, FS: fsys})
		gen, err := ycsb.NewGenerator(ycsb.Config{
			RecordCount: records, OperationCount: warmOps + runOps,
			UpdateProportion: 0.5, ReadProportion: 0.5, Distribution: ycsb.Zipfian, Seed: int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		val := bytes.Repeat([]byte("v"), 100)
		key := func(id uint64) []byte { return []byte(fmt.Sprintf("user%016x", id)) }
		for op, ok := gen.NextLoad(); ok; op, ok = gen.NextLoad() {
			if err := db.PutContext(context.Background(), key(op.Key), val); err != nil {
				b.Fatal(err)
			}
		}
		var bytes0 int64
		var misses0 uint64
		for n := 0; n < warmOps+runOps; n++ {
			if n == warmOps {
				bytes0 = fsys.bytes.Load()
				_, misses0, _ = db.blockCache.Stats()
			}
			if n >= warmOps && n%5000 == 0 {
				peakBytes = max(peakBytes, float64(db.Stats().TableBytes))
			}
			op, _ := gen.NextRun()
			if op.Kind == ycsb.OpUpdate {
				err = db.PutContext(context.Background(), key(op.Key), val)
			} else {
				_, err = db.GetContext(context.Background(), key(op.Key))
			}
			if err != nil {
				b.Fatal(err)
			}
		}
		_, misses1, _ := db.blockCache.Stats()
		readBytes += float64(fsys.bytes.Load() - bytes0)
		misses += float64(misses1 - misses0)
	}
	ops := float64(b.N) * runOps
	b.ReportMetric(readBytes/ops, "file-read-B/op")
	b.ReportMetric(misses/ops, "get-misses/op")
	b.ReportMetric(cacheBytes/peakBytes, "cache/peak-table-bytes")
}

// BenchmarkMajorCompactReadColdShape is the major compaction of bench/'s
// read_cold set-up on its own: 300 000 records in the ycsb load order
// (user%016x keys of a hashed id) with 100-byte random values, loaded
// through 1 MiB memtables into 37 flushed tables beside a 2 MiB block cache,
// then merged to one table by BT(I) at k = 4. Only the major is timed. It
// reports the major's wall time and the root merge's, from the root's create
// to its fsync: the last step of the schedule's critical path, and the one
// table a major fsyncs.
//
// Run with:
//
//	go test -bench BenchmarkMajorCompactReadColdShape -benchtime 5x -run XXX ./internal/lsm
func BenchmarkMajorCompactReadColdShape(b *testing.B) {
	const records = 300_000
	var (
		mu      sync.Mutex
		created = map[string]time.Time{}
		root    time.Duration // the last table fsync's time since its create
	)
	fsys := &gateFS{FS: vfs.Default, at: func(op fileOp, path string) {
		mu.Lock()
		defer mu.Unlock()
		switch op {
		case tableCreate:
			created[path] = time.Now()
		case tableSynced:
			root = time.Since(created[path])
		}
	}}
	var major, roots time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		db, err := Open(dir, Options{MemtableBytes: 1 << 20, BlockCacheBytes: 2 << 20, FS: fsys})
		if err != nil {
			b.Fatal(err)
		}
		gen, err := ycsb.NewGenerator(ycsb.Config{RecordCount: records, OperationCount: 1, ReadProportion: 1})
		if err != nil {
			b.Fatal(err)
		}
		r := rand.New(rand.NewSource(1))
		val := make([]byte, 100)
		var wb WriteBatch
		for op, ok := gen.NextLoad(); ok; op, ok = gen.NextLoad() {
			r.Read(val)
			wb.Put([]byte(fmt.Sprintf("user%016x", op.Key)), val)
			if wb.Len() == 256 {
				if err := db.WriteContext(context.Background(), &wb); err != nil {
					b.Fatal(err)
				}
				wb.Reset()
			}
		}
		if err := db.WriteContext(context.Background(), &wb); err != nil {
			b.Fatal(err)
		}
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
		if n := db.Stats().Tables; n < 30 {
			b.Fatalf("the load left %d tables, want read_cold's 37", n)
		}
		mu.Lock()
		root = 0
		mu.Unlock()
		b.StartTimer()
		res, err := db.MajorCompact("BT(I)", 4, 1)
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		major += res.Duration
		mu.Lock()
		roots += root
		mu.Unlock()
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(major.Milliseconds())/float64(b.N), "major-ms")
	b.ReportMetric(float64(roots.Milliseconds())/float64(b.N), "root-ms")
}

// BenchmarkLoadUpdateHeavyShape is bench/'s update_heavy set-up on its own:
// 100 000 records in the ycsb load order (user%016x keys of a hashed id)
// with 100 B values, written in fresh 256-op batches through 1 MiB memtables
// beside a 32 MiB block cache, with BT(I) k = 4 minor picks live, and a
// closing Flush. It reports the load's wall time and the part of it writers
// spent stalled behind the flusher.
//
// Run with:
//
//	go test -bench BenchmarkLoadUpdateHeavyShape -benchtime 10x -run XXX ./internal/lsm
func BenchmarkLoadUpdateHeavyShape(b *testing.B) {
	const records = 100_000
	policy, err := PolicyByName("BT(I)", 4, 1)
	if err != nil {
		b.Fatal(err)
	}
	val := make([]byte, 100)
	var load, stall time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		db := openTestDB(b, Options{MemtableBytes: 1 << 20, BlockCacheBytes: 32 << 20, AutoCompact: policy})
		gen, err := ycsb.NewGenerator(ycsb.Config{RecordCount: records, OperationCount: 1, ReadProportion: 1})
		if err != nil {
			b.Fatal(err)
		}
		keys := make([][]byte, 0, records)
		for op, ok := gen.NextLoad(); ok; op, ok = gen.NextLoad() {
			keys = append(keys, []byte(fmt.Sprintf("user%016x", op.Key)))
		}
		b.StartTimer()
		start := time.Now()
		for len(keys) > 0 {
			n := min(len(keys), 256)
			wb := new(WriteBatch)
			for _, k := range keys[:n] {
				wb.Put(k, val)
			}
			if err := db.WriteContext(context.Background(), wb); err != nil {
				b.Fatal(err)
			}
			keys = keys[n:]
		}
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
		load += time.Since(start)
		b.StopTimer()
		stall += db.Stats().WriteStallTime
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(load.Microseconds())/1e3/float64(b.N), "load-ms")
	b.ReportMetric(float64(stall.Microseconds())/1e3/float64(b.N), "stall-ms")
}
