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
			var rows []Fig7Row
			for i := 0; i < b.N; i++ {
				var err error
				if rows, err = Fig7(p); err != nil {
					b.Fatal(err)
				}
			}
			cost := 0.0
			for _, row := range rows {
				cost += row.Cells[strat].Cost.Mean
			}
			b.ReportMetric(cost, "cost_keys")
		})
	}
}

// BenchmarkFig8 regenerates Figure 8; cost_over_LOPT is the mean over its
// points of BT(I)'s cost over the Σ|A_i| lower bound, the constant factor
// the paper's log-log plot shows.
func BenchmarkFig8(b *testing.B) {
	var rows []Fig8Row
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = Fig8(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
	ratio := 0.0
	for _, r := range rows {
		ratio += r.Ratio / float64(len(rows))
	}
	b.ReportMetric(ratio, "cost_over_LOPT")
}

func BenchmarkFig9a(b *testing.B) { benchFig9(b, Fig9a) }

func BenchmarkFig9b(b *testing.B) { benchFig9(b, Fig9b) }

func benchFig9(b *testing.B, fig func(Params) ([]Fig9Row, error)) {
	var rows []Fig9Row
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = fig(benchParams()); err != nil {
			b.Fatal(err)
		}
	}
	cost := 0.0
	for _, r := range rows {
		cost += r.Cost.Mean
	}
	b.ReportMetric(cost, "cost_keys")
}

// BenchmarkOptGap runs the optimality-gap experiment on one 10-table
// instance and reports each strategy's cost over the exact optimum.
func BenchmarkOptGap(b *testing.B) {
	var rows []OptGapRow
	for i := 0; i < b.N; i++ {
		var err error
		if rows, err = OptGap(benchParams(), 10, 1); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MeanRatio, "cost_over_OPT/"+r.Strategy)
	}
}

// BenchmarkPlanningOverhead isolates pure strategy overhead: the greedy
// loop decides and performs merges together, so overhead_ms is its time
// less a merge-only replay of the same schedule.
func BenchmarkPlanningOverhead(b *testing.B) {
	p := benchParams().withDefaults()
	inst, err := GenerateTables(workloadConfig(p, 40, p.Seed), p.MemtableKeys)
	if err != nil {
		b.Fatal(err)
	}
	for _, strat := range []string{"SI", "SO", "SO(exact)"} {
		b.Run("strategy="+strat, func(b *testing.B) {
			var res result
			for i := 0; i < b.N; i++ {
				var err error
				if res, err = runStrategy(inst, strat, p.K, p.Seed, 1); err != nil {
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
