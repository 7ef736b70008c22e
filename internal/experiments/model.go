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

// result reports one solver's run over one instance.
type result struct {
	// Tables is the number of input sstables.
	Tables int
	// CostSimple is the equation 2.1 cost of the schedule (keys).
	CostSimple int
	// CostActual is the Section 2 disk I/O cost (keys read+written).
	CostActual int
	// LowerBound is LOPT = Σ|A_i| for the instance.
	LowerBound int
	// Steps is the number of merges in the schedule.
	Steps int
	// PlanAndMerge is the wall time of the greedy loop, which both decides
	// merges (strategy overhead: heap pops, HLL estimates, ...) and
	// performs them sequentially.
	PlanAndMerge time.Duration
	// MergeSequential is the wall time to re-execute just the merges on
	// one worker; PlanAndMerge − MergeSequential estimates pure strategy
	// overhead.
	MergeSequential time.Duration
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

// solver is one way to compact an instance: a chooser run through
// compaction.Run, or an algorithm that builds the whole schedule (FREQ, the
// DP optimum). seed feeds RANDOM.
type solver struct {
	name     string
	schedule func(inst *compaction.Instance, k int, seed int64) (*compaction.Schedule, error)
}

// strategies returns the solvers of strategy names
// compaction.NewChooserByName accepts; an unknown name fails when run.
func strategies(names ...string) []solver {
	out := make([]solver, len(names))
	for i, name := range names {
		out[i] = solver{name, func(inst *compaction.Instance, k int, seed int64) (*compaction.Schedule, error) {
			ch, err := compaction.NewChooserByName(name, seed)
			if err != nil {
				return nil, err
			}
			return compaction.Run(inst, k, ch)
		}}
	}
	return out
}

// soAt is SMALLESTOUTPUT estimating cardinalities with HLL sketches of
// precision prec.
func soAt(prec uint8) solver {
	return solver{fmt.Sprintf("HLL p=%d", prec), func(inst *compaction.Instance, k int, _ int64) (*compaction.Schedule, error) {
		return compaction.Run(inst, k, compaction.NewSmallestOutput(compaction.NewHLLEstimator(prec)))
	}}
}

var (
	freq = solver{"FREQ", func(inst *compaction.Instance, k int, _ int64) (*compaction.Schedule, error) {
		return compaction.FreqMerge(inst, k)
	}}
	// optimum is the exact BINARYMERGING optimum, whatever k.
	optimum = solver{"OPT", func(inst *compaction.Instance, _ int, _ int64) (*compaction.Schedule, error) {
		return compaction.OptimalBinary(inst)
	}}
)

// point summarises one solver's runs at one workload point: each field is
// the mean and standard deviation over the runs.
type point struct {
	CostActual, CostSimple, LOPT, TimeMs, Tables, Steps Stat
}

// measure is the measurement loop of every figure: phase one generates
// p.Runs instances from p's workload at updatePct, run r's seeded
// p.Seed + 1000r + offset, and every solver compacts each of them.
func measure(p Params, updatePct int, offset int64, solvers []solver) ([]point, error) {
	samples := make([][6][]float64, len(solvers))
	for run := 0; run < p.Runs; run++ {
		seed := p.Seed + int64(run)*1000 + offset
		inst, err := GenerateTables(WorkloadConfig(p, updatePct, seed), p.MemtableKeys)
		if err != nil {
			return nil, err
		}
		results, err := solve(inst, solvers, p.K, seed+7, p.Workers)
		if err != nil {
			return nil, err
		}
		for i, r := range results {
			for j, x := range [6]float64{float64(r.CostActual), float64(r.CostSimple), float64(r.LowerBound),
				float64(r.Reported.Microseconds()) / 1000, float64(r.Tables), float64(r.Steps)} {
				samples[i][j] = append(samples[i][j], x)
			}
		}
	}
	points := make([]point, len(solvers))
	for i, s := range samples {
		points[i] = point{NewStat(s[0]), NewStat(s[1]), NewStat(s[2]), NewStat(s[3]), NewStat(s[4]), NewStat(s[5])}
	}
	return points, nil
}

// solve runs phase two with every solver on inst (see runStrategy).
func solve(inst *compaction.Instance, solvers []solver, k int, seed int64, workers int) ([]result, error) {
	results := make([]result, len(solvers))
	for i, s := range solvers {
		var err error
		if results[i], err = runStrategy(inst, s, k, seed, workers); err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return results, nil
}

// runStrategy runs phase two: it schedules and merges inst with s and
// measures cost and time. workers bounds merge parallelism for the
// BALANCETREE strategies, whose within-level merges are independent ("we
// use threads to parallelly initiate multiple merge operations", Section
// 5.1); other solvers execute sequentially exactly as the paper's
// implementation does.
func runStrategy(inst *compaction.Instance, s solver, k int, seed int64, workers int) (result, error) {
	res := result{Tables: inst.N(), LowerBound: inst.LowerBound()}
	start := time.Now()
	sched, err := s.schedule(inst, k, seed)
	if err != nil {
		return res, err
	}
	res.PlanAndMerge = time.Since(start)
	res.CostSimple = sched.CostSimple()
	res.CostActual = sched.CostActual()
	res.Steps = len(sched.Steps)
	res.Parallelism = compaction.MaxParallelism(sched)

	start = time.Now()
	if err := compaction.ExecuteParallel(sched, 1); err != nil {
		return res, err
	}
	res.MergeSequential = time.Since(start)

	res.Reported = res.PlanAndMerge
	if strings.HasPrefix(s.name, "BT") && workers > 1 {
		start = time.Now()
		if err := compaction.ExecuteParallel(sched, workers); err != nil {
			return res, err
		}
		res.Reported = res.Overhead() + time.Since(start)
	}
	return res, nil
}
