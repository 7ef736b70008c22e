package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/compaction"
	"repro/internal/keyset"
	"repro/internal/ycsb"
)

// keyTable is the paper's simulation memtable: it holds at most capacity
// distinct uint64 keys. Re-inserting a key already buffered is absorbed
// ("As a memtable may contain duplicate keys, sstables may be smaller and
// vary in size", Section 5.1) — which is why update-heavy workloads produce
// smaller, overlapping sstables.
type keyTable struct {
	capacity int
	keys     map[uint64]struct{}
}

// newKeyTable creates a simulation memtable holding up to capacity distinct
// keys. capacity must be positive.
func newKeyTable(capacity int) *keyTable {
	if capacity <= 0 {
		capacity = 1
	}
	return &keyTable{capacity: capacity, keys: make(map[uint64]struct{}, capacity)}
}

// Add buffers a write of key and reports whether the memtable is full and
// must be flushed.
func (kt *keyTable) Add(key uint64) (full bool) {
	kt.keys[key] = struct{}{}
	return len(kt.keys) >= kt.capacity
}

// Len returns the number of distinct keys buffered.
func (kt *keyTable) Len() int { return len(kt.keys) }

// Empty reports whether no keys are buffered.
func (kt *keyTable) Empty() bool { return len(kt.keys) == 0 }

// Flush returns the buffered keys as a sorted set — the flushed sstable of
// the paper's model — and resets the memtable for reuse.
func (kt *keyTable) Flush() keyset.Set {
	keys := make([]uint64, 0, len(kt.keys))
	for k := range kt.keys {
		keys = append(keys, k)
	}
	kt.keys = make(map[uint64]struct{}, kt.capacity)
	return keyset.New(keys...)
}

// GenerateTables runs phase one: it feeds the workload through a memtable
// of memtableKeys distinct keys and returns the flushed sstables as a
// compaction instance. Only mutating operations (inserts, updates and
// deletes-as-updates) reach the memtable; reads and scans are ignored
// because they do not modify sstables. A final partial memtable is flushed
// so no writes are lost.
func GenerateTables(workload ycsb.Config, memtableKeys int) (*compaction.Instance, error) {
	if memtableKeys <= 0 {
		return nil, fmt.Errorf("experiments: memtable capacity %d", memtableKeys)
	}
	gen, err := ycsb.NewGenerator(workload)
	if err != nil {
		return nil, err
	}
	mt := newKeyTable(memtableKeys)
	var sets []keyset.Set
	consume := func(op ycsb.Op) {
		if !op.Mutates() {
			return
		}
		if mt.Add(op.Key) {
			sets = append(sets, mt.Flush())
		}
	}
	for {
		op, ok := gen.NextLoad()
		if !ok {
			break
		}
		consume(op)
	}
	for {
		op, ok := gen.NextRun()
		if !ok {
			break
		}
		consume(op)
	}
	if !mt.Empty() {
		sets = append(sets, mt.Flush())
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("experiments: workload produced no sstables")
	}
	return compaction.NewInstance(sets...), nil
}

// result reports one strategy run over one instance.
type result struct {
	// Strategy and K identify the run.
	Strategy string
	K        int
	// Tables is the number of input sstables.
	Tables int
	// CostSimple is the equation 2.1 cost of the schedule (keys).
	CostSimple int
	// CostActual is the Section 2 disk I/O cost (keys read+written).
	CostActual int
	// LowerBound is LOPT = Σ|A_i| for the instance.
	LowerBound int
	// PlanAndMerge is the wall time of the greedy loop, which both decides
	// merges (strategy overhead: heap pops, HLL estimates, ...) and
	// performs them sequentially.
	PlanAndMerge time.Duration
	// MergeSequential is the wall time to re-execute just the merges on
	// one worker; PlanAndMerge − MergeSequential estimates pure strategy
	// overhead.
	MergeSequential time.Duration
	// MergeParallel is the wall time to execute the merges on Workers
	// workers (only meaningfully smaller for BT-shaped trees).
	MergeParallel time.Duration
	// Reported is the headline time, mirroring the paper's measurement:
	// strategy overhead plus merge time, with the merge executed in
	// parallel for the BALANCETREE strategies and sequentially otherwise.
	Reported time.Duration
	// Parallelism is the schedule's maximum available merge concurrency.
	Parallelism int
}

// Overhead returns the estimated pure strategy overhead (never negative).
func (r result) Overhead() time.Duration {
	if r.PlanAndMerge > r.MergeSequential {
		return r.PlanAndMerge - r.MergeSequential
	}
	return 0
}

// runStrategy runs phase two: it schedules and merges inst with the named
// strategy (see compaction.NewChooserByName) and measures cost and time.
// workers bounds merge parallelism for the BALANCETREE strategies, whose
// within-level merges are independent ("we use threads to parallelly
// initiate multiple merge operations", Section 5.1); other strategies
// execute sequentially exactly as the paper's implementation does.
func runStrategy(inst *compaction.Instance, strategy string, k int, seed int64, workers int) (result, error) {
	res := result{Strategy: strategy, K: k, Tables: inst.N(), LowerBound: inst.LowerBound()}

	chooser, err := compaction.NewChooserByName(strategy, seed)
	if err != nil {
		return res, err
	}
	start := time.Now()
	sched, err := compaction.Run(inst, k, chooser)
	if err != nil {
		return res, err
	}
	res.PlanAndMerge = time.Since(start)
	res.CostSimple = sched.CostSimple()
	res.CostActual = sched.CostActual()
	res.Parallelism = compaction.MaxParallelism(sched)

	start = time.Now()
	if err := compaction.ExecuteParallel(sched, 1); err != nil {
		return res, err
	}
	res.MergeSequential = time.Since(start)

	if workers > 1 {
		start = time.Now()
		if err := compaction.ExecuteParallel(sched, workers); err != nil {
			return res, err
		}
		res.MergeParallel = time.Since(start)
	} else {
		res.MergeParallel = res.MergeSequential
	}

	if isParallelStrategy(strategy) && workers > 1 {
		res.Reported = res.Overhead() + res.MergeParallel
	} else {
		res.Reported = res.PlanAndMerge
	}
	return res, nil
}

// isParallelStrategy reports whether the paper's implementation of the
// strategy merges concurrently (the BALANCETREE family).
func isParallelStrategy(name string) bool {
	return strings.HasPrefix(name, "BT")
}
