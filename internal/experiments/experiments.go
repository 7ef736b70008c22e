// Package experiments reimplements the paper's two-phase evaluation
// pipeline (Section 5.1) and regenerates every figure of its evaluation
// from it. Phase one (GenerateTables) feeds a YCSB operation stream through
// a memtable of fixed key count, flushing a new sstable (modeled as a key
// set) whenever it fills — so update-heavy workloads, which rewrite the
// same keys, produce fewer and more overlapping sstables. Phase two merges
// the generated sstables to a single table with a chosen strategy,
// measuring the abstract costs and the wall-clock running time.
//
// The figures are Figure 7 (cost and time versus update percentage for the
// five strategies), Figure 8 (BT(I) cost versus the Σ|A_i| lower bound
// while the memtable size sweeps four decades), and Figure 9 (cost versus
// completion time for SI as update percentage and operation count vary).
// An additional optimality-gap experiment compares every heuristic against
// the exact DP optimum on small instances, a comparison the paper
// approximated with the lower bound.
//
// Each experiment averages over independent runs (the paper uses 3) and
// reports mean ± standard deviation.
//
// EngineMatrix asks the same question of the real engine, through the kv
// package: every minor policy over a few YCSB write streams, in counts
// alone, so that one run is the answer and a committed copy is checked
// exactly.
package experiments

import (
	"fmt"
	"math"
	"runtime"

	"repro/internal/ycsb"
)

// Stat is a mean and sample standard deviation over experiment runs.
type Stat struct {
	Mean, Std float64
}

// NewStat summarizes xs; the Std of fewer than two samples is zero.
func NewStat(xs []float64) Stat {
	if len(xs) == 0 {
		return Stat{}
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(len(xs))
	if len(xs) < 2 {
		return Stat{Mean: mean}
	}
	ss := 0.0
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return Stat{Mean: mean, Std: math.Sqrt(ss / float64(len(xs)-1))}
}

// String formats the stat as "mean ± std".
func (s Stat) String() string { return fmt.Sprintf("%.0f ± %.0f", s.Mean, s.Std) }

// Params holds the knobs shared by the experiments, defaulting to the
// paper's Section 5.2 settings.
type Params struct {
	// OperationCount is YCSB's operationcount (paper: 100K).
	OperationCount int
	// RecordCount is YCSB's recordcount for the load phase (paper: 1000).
	RecordCount int
	// MemtableKeys is the memtable flush threshold in distinct keys
	// (paper: 1000).
	MemtableKeys int
	// Runs is the number of independent runs averaged (paper: 3).
	Runs int
	// K is the merge fan-in (paper default: 2).
	K int
	// Workers bounds BT's merge parallelism (paper: 2×quad-core machine).
	Workers int
	// Distribution is the key access distribution (the paper presents
	// latest; uniform and zipfian "are similar").
	Distribution ycsb.Distribution
	// Seed bases the per-run seeds, keeping every experiment reproducible.
	Seed int64
	// Strategies restricts strategy-comparison figures (Figure 7) to a
	// subset of the registry. Empty selects the paper's evaluated five.
	// Names must come from compaction.StrategyNames().
	Strategies []string
}

// DefaultParams returns the paper's settings.
func DefaultParams() Params {
	return Params{
		OperationCount: 100000,
		RecordCount:    1000,
		MemtableKeys:   1000,
		Runs:           3,
		K:              2,
		Workers:        runtime.GOMAXPROCS(0),
		Distribution:   ycsb.Latest,
		Seed:           1,
	}
}

func (p Params) withDefaults() Params {
	d := DefaultParams()
	if p.OperationCount <= 0 {
		p.OperationCount = d.OperationCount
	}
	if p.RecordCount <= 0 {
		p.RecordCount = d.RecordCount
	}
	if p.MemtableKeys <= 0 {
		p.MemtableKeys = d.MemtableKeys
	}
	if p.Runs <= 0 {
		p.Runs = d.Runs
	}
	if p.K < 2 {
		p.K = d.K
	}
	if p.Workers <= 0 {
		p.Workers = d.Workers
	}
	if p.Seed == 0 {
		p.Seed = d.Seed
	}
	return p
}

// UpdatePercentages is the Figure 7 sweep from insert-heavy to
// update-heavy.
var UpdatePercentages = []int{0, 20, 40, 60, 80, 100}

// workloadConfig builds the YCSB config for a given update percentage: the
// paper sweeps "from insert heavy (insert proportion 100% and update
// proportion 0%) to update heavy (update proportion 100%)".
func workloadConfig(p Params, updatePct int, seed int64) ycsb.Config {
	return ycsb.Config{
		RecordCount:      p.RecordCount,
		OperationCount:   p.OperationCount,
		UpdateProportion: float64(updatePct) / 100,
		InsertProportion: 1 - float64(updatePct)/100,
		Distribution:     p.Distribution,
		Seed:             seed,
	}
}
