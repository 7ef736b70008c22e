package experiments

import (
	"testing"

	"repro/internal/compaction"
	"repro/internal/ycsb"
)

// The figure benchmarks regenerate each figure at a tenth of the paper's
// operation count and one run; cmd/compactsim runs them at full scale.
// Wall time is the benchmark measurement itself. cost_keys is the
// costactual summed over every point the figure plots, so ns/op divided by
// cost_keys is the time per key that Figure 9 plots against cost.

func benchParams() Params {
	return Params{OperationCount: 10000, Runs: 1, Workers: 4, Distribution: ycsb.Latest, Seed: 7}
}

// BenchmarkFig7 regenerates Figure 7 one strategy at a time, so each
// sub-benchmark's time is that strategy's (phase one included).
func BenchmarkFig7(b *testing.B) {
	for _, strat := range compaction.EvaluatedStrategies() {
		b.Run("strategy="+strat, func(b *testing.B) {
			p := benchParams()
			p.Strategies = []string{strat}
			var tables []Table
			for i := 0; i < b.N; i++ {
				var err error
				if tables, err = Fig7(p); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(columnSum(tables[0], 1), "cost_keys")
		})
	}
}

// columnSum sums the means of column col over t's rows.
func columnSum(t Table, col int) float64 {
	sum := 0.0
	for _, row := range t.Rows {
		switch v := row[col].(type) {
		case Stat:
			sum += v.Mean
		case float64:
			sum += v
		}
	}
	return sum
}

// BenchmarkFig8 regenerates Figure 8; cost_over_LOPT is the mean over its
// points of BT(I)'s cost over the Σ|A_i| lower bound, the constant factor
// the paper's log-log plot shows.
func BenchmarkFig8(b *testing.B) {
	var t Table
	for i := 0; i < b.N; i++ {
		var err error
		if t, err = Fig8(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(columnSum(t, 5)/float64(len(t.Rows)), "cost_over_LOPT")
}

func BenchmarkFig9a(b *testing.B) { benchFig9(b, Fig9a) }

func BenchmarkFig9b(b *testing.B) { benchFig9(b, Fig9b) }

func benchFig9(b *testing.B, fig func(Params) (Table, error)) {
	var t Table
	for i := 0; i < b.N; i++ {
		var err error
		if t, err = fig(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(columnSum(t, 2), "cost_keys")
}

// BenchmarkOptGap runs the optimality-gap experiment on one 10-table
// instance and reports each strategy's cost over the exact optimum.
func BenchmarkOptGap(b *testing.B) {
	var t Table
	for i := 0; i < b.N; i++ {
		var err error
		if t, err = OptGap(benchParams(), 10, 1); err != nil {
			b.Fatal(err)
		}
	}
	for _, row := range t.Rows {
		b.ReportMetric(row[1].(float64), "cost_over_OPT/"+row[0].(string))
	}
}

// BenchmarkPlanningOverhead isolates pure strategy overhead: the greedy
// loop decides and performs merges together, so overhead_ms is its time
// less a merge-only replay of the same schedule.
func BenchmarkPlanningOverhead(b *testing.B) {
	p := benchParams().withDefaults()
	inst, err := GenerateTables(WorkloadConfig(p, 40, p.Seed), p.MemtableKeys)
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []string{"SI", "SO", "SO(exact)"} {
		b.Run("strategy="+strat, func(b *testing.B) {
			var res result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = runStrategy(inst, strategies(strat)[0], p.K, p.Seed, 1); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Overhead().Microseconds())/1000, "overhead_ms")
		})
	}
}

// BenchmarkEngineMatrix runs the whole engine matrix (see EngineMatrix);
// BT(I)_write_amp is its mean over the mixes.
func BenchmarkEngineMatrix(b *testing.B) {
	var cells []EngineCell
	for i := 0; i < b.N; i++ {
		var err error
		if cells, err = EngineMatrix(b.TempDir()); err != nil {
			b.Fatal(err)
		}
	}
	amp := 0.0
	for _, c := range cells {
		if c.Policy == "BT(I)" {
			amp += c.WriteAmp / float64(len(EngineMixes))
		}
	}
	b.ReportMetric(amp, "BT(I)_write_amp")
}
