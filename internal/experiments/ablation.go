package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/compaction"
)

// Ablation experiments for the design choices DESIGN.md calls out: the
// merge fan-in k (K-WAYMERGING) and the HyperLogLog precision behind the
// practical SMALLESTOUTPUT strategy. Neither is swept in the paper — k is
// fixed to 2 and HLL precision is unstated — so these quantify the choices
// this reproduction made.

// KSweepRow reports one (strategy, k) cell: cost, number of merge steps
// and time over the standard Figure 7 workload.
type KSweepRow struct {
	Strategy   string
	K          int
	Cost       Stat
	Steps      Stat
	TimeMs     Stat
	CostVsLOPT float64
}

// KSweep measures how the merge fan-in changes cost and step count. Larger
// k means fewer, fatter merges: cost (each key is rewritten fewer times)
// and running time fall, which is why the paper's model allows k-way
// merging in the first place.
func KSweep(p Params, updatePct int, ks []int) ([]KSweepRow, error) {
	p = p.withDefaults()
	if len(ks) == 0 {
		ks = []int{2, 3, 4, 8}
	}
	var rows []KSweepRow
	for _, strat := range []string{"SI", "BT(I)"} {
		for _, k := range ks {
			if k < 2 {
				return nil, fmt.Errorf("ksweep: k = %d", k)
			}
			var costs, steps, times, lopts []float64
			for run := 0; run < p.Runs; run++ {
				seed := p.Seed + int64(run)*1000
				inst, err := GenerateTables(workloadConfig(p, updatePct, seed), p.MemtableKeys)
				if err != nil {
					return nil, err
				}
				res, err := runStrategy(inst, strat, k, seed+7, p.Workers)
				if err != nil {
					return nil, err
				}
				costs = append(costs, float64(res.CostActual))
				times = append(times, float64(res.Reported.Microseconds())/1000)
				lopts = append(lopts, float64(res.LowerBound))
				steps = append(steps, float64(numSteps(inst.N(), k)))
			}
			row := KSweepRow{
				Strategy: strat,
				K:        k,
				Cost:     NewStat(costs),
				Steps:    NewStat(steps),
				TimeMs:   NewStat(times),
			}
			if l := NewStat(lopts).Mean; l > 0 {
				row.CostVsLOPT = row.Cost.Mean / l
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// numSteps returns the number of merges needed to reduce n tables with
// fan-in k: each step retires k−1 tables (the last may retire fewer).
func numSteps(n, k int) int {
	steps := 0
	for n > 1 {
		take := k
		if n < k {
			take = n
		}
		n -= take - 1
		steps++
	}
	return steps
}

// HLLSweepRow reports one precision point of the SO strategy against the
// exact-cardinality reference.
type HLLSweepRow struct {
	// Precision is the sketch precision p (2^p registers); 0 denotes the
	// exact-cardinality reference row.
	Precision uint8
	Cost      Stat
	TimeMs    Stat
	// CostVsExact is mean cost relative to the exact SO run (1.0 = no
	// estimation-induced regression).
	CostVsExact float64
}

// HLLSweep quantifies Section 5.2's observation that "the cost of SO and
// BT(O) is sensitive to the error in cardinality estimation": lower sketch
// precision is faster per estimate but produces worse merge choices.
func HLLSweep(p Params, updatePct int, precisions []uint8) ([]HLLSweepRow, error) {
	p = p.withDefaults()
	if len(precisions) == 0 {
		precisions = []uint8{6, 8, 10, 12, 14}
	}
	type point struct {
		cost, ms []float64
	}
	exact := &point{}
	byPrec := map[uint8]*point{}
	for _, prec := range precisions {
		byPrec[prec] = &point{}
	}

	for run := 0; run < p.Runs; run++ {
		seed := p.Seed + int64(run)*1000
		inst, err := GenerateTables(workloadConfig(p, updatePct, seed), p.MemtableKeys)
		if err != nil {
			return nil, err
		}
		run := func(ch compaction.Chooser) (int, time.Duration, error) {
			start := time.Now()
			sc, err := compaction.Run(inst, p.K, ch)
			if err != nil {
				return 0, 0, err
			}
			return sc.CostActual(), time.Since(start), nil
		}
		cost, dur, err := run(compaction.NewSmallestOutput(compaction.ExactEstimator{}))
		if err != nil {
			return nil, err
		}
		exact.cost = append(exact.cost, float64(cost))
		exact.ms = append(exact.ms, float64(dur.Microseconds())/1000)
		for _, prec := range precisions {
			cost, dur, err := run(compaction.NewSmallestOutput(compaction.NewHLLEstimator(prec)))
			if err != nil {
				return nil, err
			}
			byPrec[prec].cost = append(byPrec[prec].cost, float64(cost))
			byPrec[prec].ms = append(byPrec[prec].ms, float64(dur.Microseconds())/1000)
		}
	}

	exactRow := HLLSweepRow{Precision: 0, Cost: NewStat(exact.cost), TimeMs: NewStat(exact.ms), CostVsExact: 1}
	rows := []HLLSweepRow{exactRow}
	for _, prec := range precisions {
		pt := byPrec[prec]
		row := HLLSweepRow{Precision: prec, Cost: NewStat(pt.cost), TimeMs: NewStat(pt.ms)}
		if exactRow.Cost.Mean > 0 {
			row.CostVsExact = row.Cost.Mean / exactRow.Cost.Mean
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatKSweep renders the k ablation.
func FormatKSweep(rows []KSweepRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation: merge fan-in k (K-WAYMERGING)")
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "strategy\tk\tcost (keys)\tmerge steps\ttime (ms)\tcost/LOPT")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%d\t%s\t%.0f\t%.2f\t%.2f\n", r.Strategy, r.K, r.Cost, r.Steps.Mean, r.TimeMs.Mean, r.CostVsLOPT)
	}
	tw.Flush()
	return b.String()
}

// FormatHLLSweep renders the HLL precision ablation.
func FormatHLLSweep(rows []HLLSweepRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Ablation: SMALLESTOUTPUT cardinality estimation precision")
	tw := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "estimator\tcost (keys)\ttime (ms)\tcost vs exact")
	for _, r := range rows {
		name := fmt.Sprintf("HLL p=%d", r.Precision)
		if r.Precision == 0 {
			name = "exact"
		}
		fmt.Fprintf(tw, "%s\t%s\t%.2f\t%.4f\n", name, r.Cost, r.TimeMs.Mean, r.CostVsExact)
	}
	tw.Flush()
	return b.String()
}
