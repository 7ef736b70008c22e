package lsm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/compaction"
	"repro/internal/hll"
	"repro/internal/keyset"
	"repro/internal/kverr"
	"repro/internal/vfs"
	"repro/internal/ycsb"
)

// planFixture opens a store without a block cache (so every block a table
// read needs goes to the file) holding `tables` flushed tables of
// keys/tables entries each, over interleaved — overlapping-range, disjoint —
// key sets.
func planFixture(tb testing.TB, fsys vfs.FS, tables, keys int) *DB {
	tb.Helper()
	db := openTestDB(tb, Options{MemtableBytes: 256 << 20, BlockCacheBytes: -1, FS: fsys})
	val := bytes.Repeat([]byte("v"), 16)
	for t := 0; t < tables; t++ {
		for i := t; i < keys; i += tables {
			if err := db.PutContext(context.Background(), scanKey(i), val); err != nil {
				tb.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			tb.Fatal(err)
		}
	}
	return db
}

// planCost plans the major compaction of db's tables with strategy and
// returns the bytes the planning read from table files and allocated.
func planCost(t *testing.T, db *DB, fsys *sstReads, strategy string) (read int64, alloc uint64) {
	t.Helper()
	chooser, err := compaction.NewLiveChooser(strategy, 1)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	read0 := fsys.bytes.Load()
	sched, err := planMajor(db.tables, 4, chooser)
	if err != nil {
		t.Fatalf("%s: plan: %v", strategy, err)
	}
	runtime.ReadMemStats(&after)
	if len(sched.Steps) != 3 {
		t.Fatalf("%s: %d steps for 8 tables at k=4, want 3", strategy, len(sched.Steps))
	}
	return fsys.bytes.Load() - read0, after.TotalAlloc - before.TotalAlloc
}

// TestMajorCompactReadsEachInputOnce: planning from persisted statistics
// reads no table data and allocates the same whatever the tables hold, so a
// major compaction's device reads are its merges' — every step's inputs,
// once — and nothing more. The key-set strategies, which would need a pass
// over every key, are refused with ErrConfig before a table is read.
func TestMajorCompactReadsEachInputOnce(t *testing.T) {
	var statsAlloc []uint64
	for _, keys := range []int{20_000, 200_000} {
		fsys := &sstReads{FS: vfs.Default}
		db := planFixture(t, fsys, 8, keys)
		var snapBytes int64
		for _, ti := range db.TableInfos() {
			snapBytes += int64(ti.SizeBytes)
		}

		read, alloc := planCost(t, db, fsys, "BT(I)")
		if read != 0 {
			t.Errorf("%d keys: planning BT(I) read %d table bytes, want none", keys, read)
		}
		statsAlloc = append(statsAlloc, alloc)

		refused0 := fsys.bytes.Load()
		for _, strategy := range []string{"LM", "SO(exact)"} {
			if _, err := db.MajorCompact(strategy, 4, 1); !errors.Is(err, kverr.ErrConfig) {
				t.Errorf("%d keys: MajorCompact(%s) = %v, want ErrConfig", keys, strategy, err)
			}
		}
		if read := fsys.bytes.Load() - refused0; read != 0 {
			t.Errorf("%d keys: refusing the key-set strategies read %d table bytes, want none", keys, read)
		}

		read0 := fsys.bytes.Load()
		res, err := db.MajorCompact("BT(I)", 4, 1)
		if err != nil {
			t.Fatal(err)
		}
		read = fsys.bytes.Load() - read0
		var stepBytes int64
		for _, st := range res.StepStats {
			stepBytes += int64(st.BytesRead)
		}
		// Each step reads its inputs' data blocks (their footers, indexes and
		// filters were read when they were opened) and opening each output
		// reads that table's: in total within a few percent of the inputs'
		// file sizes. A planning scan would add snapBytes — half as much
		// again at this shape.
		if read < stepBytes*9/10 || read > stepBytes*21/20 {
			t.Errorf("%d keys: major compaction read %d bytes for %d bytes of step inputs (%d in the snapshot)",
				keys, read, stepBytes, snapBytes)
		}
		t.Logf("%d keys: snapshot %d B, step inputs %d B, compaction read %d B; BT(I) planning allocated %d B",
			keys, snapBytes, stepBytes, read, alloc)
		if want := keys + 2*keys + keys; res.CostActual != want {
			// Disjoint tables: two level-1 merges read and write every key
			// once, the root merge once more.
			t.Errorf("%d keys: CostActual = %d, want %d", keys, res.CostActual, want)
		}
	}
	if statsAlloc[1] > statsAlloc[0]+statsAlloc[0]/4 {
		t.Errorf("planning BT(I) allocated %d bytes over 20k keys and %d over 200k: not independent of entry count",
			statsAlloc[0], statsAlloc[1])
	}
}

// TestPlanToleratesOddSketches: a snapshot table whose sketch is missing or
// of another precision must not fail the compaction. The nodes it touches
// degrade to the disjoint sum, a full SO major compaction still runs and
// loses nothing, and a live BT(O) pick over the same tables is still valid.
func TestPlanToleratesOddSketches(t *testing.T) {
	fsys := &sstReads{FS: vfs.Default}
	db := planFixture(t, fsys, 6, 6000)
	db.mu.Lock()
	db.tables[1].sketch = nil
	small := hll.MustNew(10)
	for i := 0; i < 1000; i++ {
		small.Add(scanKey(6*i + 3))
	}
	db.tables[3].sketch = small
	db.mu.Unlock()

	if got := picked(t, mustPolicy(t, "BT(O)", 3), db.TableInfos()); len(got) != 3 {
		t.Fatalf("live BT(O) pick over odd sketches = %v, want 3 tables", got)
	}
	res, err := db.MajorCompact("SO", 4, 1)
	if err != nil {
		t.Fatalf("MajorCompact(SO) over odd sketches: %v", err)
	}
	if res.TablesAfter != 1 || len(res.StepStats) != 2 {
		t.Fatalf("result %+v: want one table from two merges", res)
	}
	for i := 0; i < 6000; i++ {
		if _, err := db.GetContext(context.Background(), scanKey(i)); err != nil {
			t.Fatalf("Get(%s) after compaction: %v", scanKey(i), err)
		}
	}
}

// BenchmarkProbeTablesMiss is one Get whose key lies inside the range of
// eight tables and in none of them: eight Bloom filters, one key hash.
func BenchmarkProbeTablesMiss(b *testing.B) {
	db := planFixture(b, vfs.Default, 8, 80_000)
	absent := make([][]byte, 1024)
	for i := range absent {
		absent[i] = []byte(fmt.Sprintf("%s!", scanKey(i*61)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.GetContext(context.Background(), absent[i%len(absent)]); err != ErrNotFound {
			b.Fatalf("Get(absent) = %v", err)
		}
	}
}

// BenchmarkMajorCompactPlan is the planning phase of a major compaction at
// the harness's read_cold shape — 37 tables of 8 000 entries — from
// persisted statistics.
func BenchmarkMajorCompactPlan(b *testing.B) {
	db := planFixture(b, vfs.Default, 37, 37*8000)
	for _, strategy := range []string{"BT(I)", "SO"} {
		b.Run(strategy, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				chooser, err := compaction.NewLiveChooser(strategy, 1)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := planMajor(db.tables, 4, chooser); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestMajorCostActualIsTheModelsCost: a major compaction's CostActual, the
// entries its merges read plus the entries they wrote, is the paper's cost
// of the schedule it ran priced on exact key sets. Two YCSB put-and-update
// streams, shaped like the engine matrix's update50-zipfian and
// update97-latest, are flushed into 12 to 16 tables with no minor merges.
// For every live strategy the test plans the oldest-first snapshot itself
// with planMajor, gives each leaf the keys its table holds and each merge
// the union of its children's, and requires Schedule.CostActual to equal
// what MajorCompact measured.
func TestMajorCostActualIsTheModelsCost(t *testing.T) {
	streams := []ycsb.Config{
		{RecordCount: 1_000, OperationCount: 2_500, UpdateProportion: 0.5, InsertProportion: 0.5,
			Distribution: ycsb.Zipfian, Seed: 7},
		{RecordCount: 2_000, OperationCount: 2_500, UpdateProportion: 0.97, InsertProportion: 0.03,
			Distribution: ycsb.Latest, Seed: 7},
	}
	value := bytes.Repeat([]byte("x"), 1000)
	for _, cfg := range streams {
		for _, strategy := range compaction.LiveStrategies() {
			gen, err := ycsb.NewGenerator(cfg)
			if err != nil {
				t.Fatal(err)
			}
			db := openTestDB(t, Options{MemtableBytes: 256 << 10})
			for _, op := range gen.All() {
				if err := db.PutContext(context.Background(), fmt.Appendf(nil, "user%016x", op.Key), value); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			snap := oldestFirst(db.tables)
			if n := len(snap); n < 12 || n > 16 {
				t.Fatalf("%v: %d tables, want 12 to 16", cfg.Distribution, n)
			}
			chooser, err := compaction.NewLiveChooser(strategy, 1)
			if err != nil {
				t.Fatal(err)
			}
			sched, err := planMajor(snap, 4, chooser)
			if err != nil {
				t.Fatal(err)
			}
			for _, leaf := range sched.Leaves {
				var keys []uint64
				for _, k := range tableKeys(t, snap[leaf.TableID]) {
					id, err := strconv.ParseUint(strings.TrimPrefix(k, "user"), 16, 64)
					if err != nil {
						t.Fatal(err)
					}
					keys = append(keys, id)
				}
				leaf.Set, leaf.Live = keyset.New(keys...), nil
			}
			for _, st := range sched.Steps {
				sets := make([]keyset.Set, len(st.Inputs))
				for i, in := range st.Inputs {
					sets[i] = in.Set
				}
				st.Output.Set, st.Output.Live = keyset.UnionAll(sets...), nil
			}
			res, err := db.MajorCompact(strategy, 4, 1)
			if err != nil {
				t.Fatal(err)
			}
			if want := sched.CostActual(); res.CostActual != want {
				t.Errorf("%v %s over %d tables: MajorCompact's CostActual = %d, the model's = %d",
					cfg.Distribution, strategy, len(snap), res.CostActual, want)
			}
		}
	}
}
