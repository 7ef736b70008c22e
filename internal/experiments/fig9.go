package experiments

import (
	"fmt"

	"repro/internal/ycsb"
)

// Fig9Row is one scatter point of Figure 9: the SMALLESTINPUT strategy's
// cost (x axis, keys) against its completion time (y axis, ms), for one
// value of the swept variable and one distribution.
type Fig9Row struct {
	// X is the swept value: update percentage (9a) or operation count (9b).
	X            int
	Distribution string
	Cost         Stat
	TimeMs       Stat
}

// Fig9a regenerates Figure 9a: SI cost versus time as the update
// percentage sweeps 0→100, for all three distributions. The paper uses it
// to validate the cost model: time grows almost linearly with cost.
func Fig9a(p Params) ([]Fig9Row, error) {
	p = p.withDefaults()
	var rows []Fig9Row
	for _, dist := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian, ycsb.Latest} {
		pd := p
		pd.Distribution = dist
		for _, pct := range UpdatePercentages {
			row, err := fig9Point(pd, pct, pd.OperationCount, pct)
			if err != nil {
				return nil, fmt.Errorf("fig9a pct=%d: %w", pct, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// Fig9bOperationCounts is the data-size sweep of Figure 9b.
var Fig9bOperationCounts = []int{20000, 40000, 60000, 80000, 100000}

// Fig9b regenerates Figure 9b: SI cost versus time as the operation count
// (data size) grows, at the Section 5.3 update:insert ratio of 60:40.
func Fig9b(p Params) ([]Fig9Row, error) {
	p = p.withDefaults()
	var rows []Fig9Row
	for _, dist := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian, ycsb.Latest} {
		pd := p
		pd.Distribution = dist
		for _, ops := range Fig9bOperationCounts {
			row, err := fig9Point(pd, 60, ops, ops)
			if err != nil {
				return nil, fmt.Errorf("fig9b ops=%d: %w", ops, err)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// fig9Point measures SI on one workload configuration over p.Runs runs.
func fig9Point(p Params, updatePct, opCount, x int) (Fig9Row, error) {
	var costs, times []float64
	for run := 0; run < p.Runs; run++ {
		seed := p.Seed + int64(run)*1000 + int64(x)
		cfg := workloadConfig(p, updatePct, seed)
		cfg.OperationCount = opCount
		inst, err := GenerateTables(cfg, p.MemtableKeys)
		if err != nil {
			return Fig9Row{}, err
		}
		res, err := runStrategy(inst, "SI", p.K, seed+7, 1)
		if err != nil {
			return Fig9Row{}, err
		}
		costs = append(costs, float64(res.CostActual))
		times = append(times, float64(res.Reported.Microseconds())/1000)
	}
	return Fig9Row{
		X:            x,
		Distribution: p.Distribution.String(),
		Cost:         NewStat(costs),
		TimeMs:       NewStat(times),
	}, nil
}
