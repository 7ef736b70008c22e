package experiments

import (
	"fmt"

	"repro/internal/ycsb"
)

// Fig8MemtableSizes is the paper's memtable-size sweep (10 to 10K keys,
// log scale) with a fixed target of 100 sstables.
var Fig8MemtableSizes = []int{10, 100, 1000, 10000}

// Fig8TargetTables is the fixed sstable count of the Figure 8 setup.
const Fig8TargetTables = 100

// Fig8Row is one (memtable size, distribution) point: the BT(I) compaction
// cost against the lower bound on the optimal cost (Σ sstable sizes), both
// in keys. The paper plots these on log-log axes and observes parallel
// lines — a constant-factor gap.
type Fig8Row struct {
	MemtableKeys int
	Distribution string
	Cost         Stat
	LowerBound   Stat
	// Ratio is mean Cost / mean LowerBound, the constant factor.
	Ratio float64
	// Tables is the mean generated sstable count (≈ Fig8TargetTables).
	Tables Stat
}

// Fig8 regenerates Figure 8: BT(I)'s cost tracks the optimal lower bound
// within a constant factor across four decades of memtable size. The
// operation count follows the paper's formula
// memtable_size × 100 − recordcount, with a 60:40 update:insert mix, for
// all three distributions.
func Fig8(p Params) ([]Fig8Row, error) {
	p = p.withDefaults()
	var rows []Fig8Row
	for _, dist := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian, ycsb.Latest} {
		pd := p
		pd.Distribution = dist
		for _, ms := range Fig8MemtableSizes {
			// Paper formula: operationcount = memtable_size × 100 −
			// recordcount, so load + run total ms×100 key writes. At
			// ms=10 the load phase alone provides them all.
			opCount := ms*Fig8TargetTables - p.RecordCount
			if opCount < 0 {
				opCount = 0
			}
			var costs, lopts, tables []float64
			for run := 0; run < p.Runs; run++ {
				seed := p.Seed + int64(run)*1000 + int64(ms)
				cfg := workloadConfig(pd, 60, seed)
				cfg.OperationCount = opCount
				inst, err := GenerateTables(cfg, ms)
				if err != nil {
					return nil, fmt.Errorf("fig8 ms=%d: %w", ms, err)
				}
				res, err := runStrategy(inst, "BT(I)", p.K, seed+7, p.Workers)
				if err != nil {
					return nil, fmt.Errorf("fig8 ms=%d: %w", ms, err)
				}
				costs = append(costs, float64(res.CostSimple))
				lopts = append(lopts, float64(res.LowerBound))
				tables = append(tables, float64(inst.N()))
			}
			row := Fig8Row{
				MemtableKeys: ms,
				Distribution: dist.String(),
				Cost:         NewStat(costs),
				LowerBound:   NewStat(lopts),
				Tables:       NewStat(tables),
			}
			if row.LowerBound.Mean > 0 {
				row.Ratio = row.Cost.Mean / row.LowerBound.Mean
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}
