package experiments

import (
	"fmt"

	"repro/internal/compaction"
)

// Fig7Cell is one (update %, strategy) measurement: compaction cost
// (costactual, in keys) and completion time (milliseconds), each mean ±
// std over the runs.
type Fig7Cell struct {
	Cost   Stat
	TimeMs Stat
}

// Fig7Row is one x-axis point of Figure 7.
type Fig7Row struct {
	UpdatePct  int
	Strategies []string
	Cells      map[string]Fig7Cell
	// Tables is the mean number of sstables generated at this point.
	Tables Stat
}

// Fig7 regenerates Figures 7a (cost) and 7b (time): for each update
// percentage, phase one generates sstables and every evaluated strategy
// compacts them; costs and times are averaged over p.Runs independent
// workloads.
func Fig7(p Params) ([]Fig7Row, error) {
	p = p.withDefaults()
	strategies := p.Strategies
	if len(strategies) == 0 {
		strategies = compaction.EvaluatedStrategies()
	}
	rows := make([]Fig7Row, 0, len(UpdatePercentages))
	for _, pct := range UpdatePercentages {
		row := Fig7Row{UpdatePct: pct, Strategies: strategies, Cells: map[string]Fig7Cell{}}
		costs := map[string][]float64{}
		times := map[string][]float64{}
		var tables []float64
		for run := 0; run < p.Runs; run++ {
			seed := p.Seed + int64(run)*1000 + int64(pct)
			inst, err := GenerateTables(workloadConfig(p, pct, seed), p.MemtableKeys)
			if err != nil {
				return nil, fmt.Errorf("fig7 pct=%d: %w", pct, err)
			}
			tables = append(tables, float64(inst.N()))
			for _, strat := range strategies {
				res, err := runStrategy(inst, strat, p.K, seed+7, p.Workers)
				if err != nil {
					return nil, fmt.Errorf("fig7 pct=%d %s: %w", pct, strat, err)
				}
				costs[strat] = append(costs[strat], float64(res.CostActual))
				times[strat] = append(times[strat], float64(res.Reported.Microseconds())/1000)
			}
		}
		for _, strat := range strategies {
			row.Cells[strat] = Fig7Cell{Cost: NewStat(costs[strat]), TimeMs: NewStat(times[strat])}
		}
		row.Tables = NewStat(tables)
		rows = append(rows, row)
	}
	return rows, nil
}
