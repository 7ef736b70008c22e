package experiments

import (
	"fmt"

	"repro/internal/compaction"
)

// OptGapRow reports how far one strategy lands from the exact optimum over
// the trials: mean and worst cost ratio (1.0 = optimal) and, for
// comparison, the mean ratio against the paper's LOPT lower bound.
type OptGapRow struct {
	Strategy      string
	MeanRatio     float64
	WorstRatio    float64
	MeanLOPTRatio float64
	Trials        int
}

// OptGap is an extension experiment the paper could not run: it compares
// every heuristic (plus the FREQ f-approximation) against the true optimum
// computed by the subset DP on small YCSB-generated instances. The paper's
// Section 5.3 had to use LOPT = Σ|A_i| instead; the gap between
// MeanLOPTRatio and MeanRatio shows how loose that bound is.
func OptGap(p Params, tables int, trials int) ([]OptGapRow, error) {
	p = p.withDefaults()
	if tables < 2 || tables > compaction.MaxOptimalN {
		return nil, fmt.Errorf("optgap: tables must be in [2,%d], got %d", compaction.MaxOptimalN, tables)
	}
	if trials <= 0 {
		trials = 5
	}
	strategies := append(compaction.EvaluatedStrategies(), "LM", "FREQ")
	ratios := map[string][]float64{}
	loptRatios := map[string][]float64{}

	for trial := 0; trial < trials; trial++ {
		seed := p.Seed + int64(trial)*101
		// Target `tables` sstables: ops ≈ memtable × tables at 50:50 mix.
		cfg := workloadConfig(p, 50, seed)
		cfg.RecordCount = p.MemtableKeys
		cfg.OperationCount = p.MemtableKeys*tables - p.MemtableKeys
		inst, err := GenerateTables(cfg, p.MemtableKeys)
		if err != nil {
			return nil, fmt.Errorf("optgap trial %d: %w", trial, err)
		}
		if inst.N() > compaction.MaxOptimalN {
			return nil, fmt.Errorf("optgap trial %d: generated %d tables", trial, inst.N())
		}
		opt, err := compaction.OptimalBinary(inst)
		if err != nil {
			return nil, err
		}
		optCost := float64(opt.CostSimple())
		lopt := float64(inst.LowerBound())
		for _, strat := range strategies {
			var cost float64
			if strat == "FREQ" {
				sc, err := compaction.FreqMerge(inst, p.K)
				if err != nil {
					return nil, err
				}
				cost = float64(sc.CostSimple())
			} else {
				res, err := runStrategy(inst, strat, p.K, seed+7, 1)
				if err != nil {
					return nil, err
				}
				cost = float64(res.CostSimple)
			}
			ratios[strat] = append(ratios[strat], cost/optCost)
			loptRatios[strat] = append(loptRatios[strat], cost/lopt)
		}
	}

	rows := make([]OptGapRow, 0, len(strategies))
	for _, strat := range strategies {
		rs := ratios[strat]
		worst := 0.0
		for _, r := range rs {
			if r > worst {
				worst = r
			}
		}
		rows = append(rows, OptGapRow{
			Strategy:      strat,
			MeanRatio:     NewStat(rs).Mean,
			WorstRatio:    worst,
			MeanLOPTRatio: NewStat(loptRatios[strat]).Mean,
			Trials:        len(rs),
		})
	}
	return rows, nil
}
