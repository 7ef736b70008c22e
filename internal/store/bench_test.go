package store

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/lsm"
)

// benchShardCounts is the shard-scaling axis: 1 is the single-pipeline
// baseline (exactly the wrapped lsm.DB), 4 and 16 show per-shard
// group-commit leaders running concurrently.
var benchShardCounts = []int{1, 4, 16}

// sizeTiered is the minor-compaction policy the benchmarks run under.
var sizeTiered, _ = lsm.PolicyByName("size-tiered", 4, 1)

func benchStore(b *testing.B, shards int, opts lsm.Options) *Store {
	b.Helper()
	s, err := Open(b.TempDir(), Options{Shards: shards, Options: opts})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	return s
}

func reportGroupStats(b *testing.B, s *Store) {
	b.Helper()
	st := s.Stats()
	if st.GroupCommits > 0 {
		b.ReportMetric(float64(st.GroupedWrites)/float64(st.GroupCommits), "group-size")
	}
	if st.GroupedWrites > 0 {
		b.ReportMetric(float64(st.WALSyncs)/float64(st.GroupedWrites), "syncs/write")
	}
}

// putParallel drives 8 concurrent writers per proc against a store.
func putParallel(b *testing.B, shards int, valueBytes int, opts lsm.Options) {
	s := benchStore(b, shards, opts)
	val := bytes.Repeat([]byte("v"), valueBytes)
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
			if err := s.PutContext(context.Background(), key[:], val); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "writes/sec")
	st := s.Stats()
	b.ReportMetric(float64(st.Flushes), "flushes")
	b.ReportMetric(float64(st.MinorCompactions), "minor-compactions")
	reportGroupStats(b, s)
}

// BenchmarkPutParallel is the headline sharding benchmark: 8 concurrent
// writers per proc against {1, 4, 16} shards in the store's deployed
// configuration — maintenance in the write path (memtable flushes and
// size-tiered auto minor compactions, lsmserver's default policy). With
// one shard, every flush or compaction holds the only commit pipeline and
// stalls every writer behind it; with N shards the maintenance of one
// shard overlaps the other N-1 pipelines' commits, which is what turns
// the single-leader write path into concurrent ones.
//
// Run with:
//
//	go test -bench BenchmarkPutParallel -benchtime 2s -run XXX ./internal/store
func BenchmarkPutParallel(b *testing.B) {
	for _, sync := range []bool{false, true} {
		for _, shards := range benchShardCounts {
			b.Run(fmt.Sprintf("sync=%v/shards=%d", sync, shards), func(b *testing.B) {
				// The 256 KiB memtable and 4 KiB values make flush and
				// compaction I/O a steady fraction of the write path (a flush
				// every ~60 writes per shard) regardless of benchmark
				// duration — the regime where one shard's maintenance
				// overlapping the other pipelines' commits dominates.
				putParallel(b, shards, 4096, lsm.Options{
					SyncWAL:       sync,
					MemtableBytes: 256 << 10,
					AutoCompact:   sizeTiered,
				})
			})
		}
	}
}

// BenchmarkPutParallelPipeline isolates the commit pipeline itself: a
// memtable large enough that maintenance never runs, so the measurement is
// pure group-commit coordination. This is where partitioning has a real
// cost — N shards fragment one large commit group into N small ones, so
// the per-group WAL append and fsync amortize over fewer writes (the
// shared write-load gauge claws part of this back; see
// lsm.Options.WriteLoad). Read together with BenchmarkPutParallel: the
// maintenance overlap pays for the group fragmentation, not the reverse.
func BenchmarkPutParallelPipeline(b *testing.B) {
	for _, sync := range []bool{false, true} {
		for _, shards := range benchShardCounts {
			b.Run(fmt.Sprintf("sync=%v/shards=%d", sync, shards), func(b *testing.B) {
				putParallel(b, shards, 100, lsm.Options{SyncWAL: sync, MemtableBytes: 256 << 20})
			})
		}
	}
}

// BenchmarkWriteBatch commits 128-record batches that split across shards
// and ride N commit pipelines concurrently.
func BenchmarkWriteBatch(b *testing.B) {
	const size = 128
	for _, shards := range benchShardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := benchStore(b, shards, lsm.Options{MemtableBytes: 256 << 20})
			val := bytes.Repeat([]byte("v"), 100)
			var batch lsm.WriteBatch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batch.Reset()
				for j := 0; j < size; j++ {
					batch.Put([]byte(fmt.Sprintf("key-%07d-%03d", i, j)), val)
				}
				if err := s.WriteContext(context.Background(), &batch); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N*size)/b.Elapsed().Seconds(), "writes/sec")
			reportGroupStats(b, s)
		})
	}
}

// BenchmarkMixedReadWrite is the serving scenario the paper assumes — a
// NoSQL node answering point reads while writes and their maintenance
// (flushes, minor compactions) churn underneath. With one shard a flush or
// compaction holds the store lock and the sole commit pipeline, so readers
// and writers alike stall behind it; with N shards only the maintaining
// shard's traffic stalls. Reported as writes/sec plus reads/sec sustained
// by two background reader goroutines over the same keyspace.
func BenchmarkMixedReadWrite(b *testing.B) {
	const keyspace = 5000
	for _, shards := range benchShardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := benchStore(b, shards, lsm.Options{
				MemtableBytes: 256 << 10,
				AutoCompact:   sizeTiered,
			})
			val := bytes.Repeat([]byte("v"), 512)
			key := func(i int) []byte { return []byte(fmt.Sprintf("key-%012d", i%keyspace)) }
			for i := 0; i < keyspace; i++ {
				if err := s.PutContext(context.Background(), key(i), val); err != nil {
					b.Fatal(err)
				}
			}
			var (
				stop  atomic.Bool
				reads atomic.Int64
				wg    sync.WaitGroup
			)
			for r := 0; r < 2; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := r; !stop.Load(); i += 7 {
						if _, err := s.GetContext(context.Background(), key(i)); err != nil {
							b.Error(err)
							return
						}
						reads.Add(1)
					}
				}(r)
			}
			var ctr atomic.Int64
			b.SetParallelism(4)
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					if err := s.PutContext(context.Background(), key(int(ctr.Add(1))), val); err != nil {
						b.Fatal(err)
					}
				}
			})
			elapsed := b.Elapsed()
			stop.Store(true)
			wg.Wait()
			b.ReportMetric(float64(b.N)/elapsed.Seconds(), "writes/sec")
			b.ReportMetric(float64(reads.Load())/elapsed.Seconds(), "reads/sec")
		})
	}
}

// BenchmarkGet measures parallel point reads against a flushed data set:
// routing adds one hash per lookup, while per-shard memtables, Bloom
// filters and block caches shrink each probe's search space.
func BenchmarkGet(b *testing.B) {
	for _, shards := range benchShardCounts {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			s := benchStore(b, shards, lsm.Options{MemtableBytes: 1 << 20})
			const n = 20000
			val := bytes.Repeat([]byte("v"), 100)
			for i := 0; i < n; i++ {
				if err := s.PutContext(context.Background(), []byte(fmt.Sprintf("key-%012d", i)), val); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				b.Fatal(err)
			}
			var ctr atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					i := ctr.Add(1)
					if _, err := s.GetContext(context.Background(), []byte(fmt.Sprintf("key-%012d", i%n))); err != nil {
						b.Fatal(err)
					}
				}
			})
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "reads/sec")
		})
	}
}
