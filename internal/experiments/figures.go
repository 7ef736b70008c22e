package experiments

import (
	"fmt"
	"slices"

	"repro/internal/compaction"
	"repro/internal/ycsb"
)

// distributions are the key distributions Figures 8 and 9 sweep.
var distributions = []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian, ycsb.Latest}

// Fig8MemtableSizes is the paper's memtable-size sweep (10 to 10K keys,
// log scale) with a fixed target of 100 sstables.
var Fig8MemtableSizes = []int{10, 100, 1000, 10000}

// Fig8TargetTables is the fixed sstable count of the Figure 8 setup.
const Fig8TargetTables = 100

// Fig9bOperationCounts is the data-size sweep of Figure 9b.
var Fig9bOperationCounts = []int{20000, 40000, 60000, 80000, 100000}

// ratio returns a.Mean / b.Mean, or 0 when b's mean is not positive.
func ratio(a, b Stat) float64 {
	if b.Mean > 0 {
		return a.Mean / b.Mean
	}
	return 0
}

// Fig7 regenerates Figures 7a (cost, costactual) and 7b (time): at each
// update percentage every evaluated strategy compacts the same p.Runs
// generated instances. Both tables end with the mean sstable count.
func Fig7(p Params) ([]Table, error) {
	p = p.withDefaults()
	names := p.Strategies
	if len(names) == 0 {
		names = compaction.EvaluatedStrategies()
	}
	cols := func(suffix string, prec int) []Column {
		c := []Column{{"update%", "update_pct", 0}}
		for _, name := range names {
			c = append(c, Column{name, name + suffix, prec})
		}
		return append(c, Column{"sstables", "sstables", 0})
	}
	fig7a := Table{Name: "fig7a", Title: "Figure 7a: compaction cost vs update percentage (keys, costactual)", Cols: cols("", 0)}
	fig7b := Table{Name: "fig7b", Title: "Figure 7b: compaction time vs update percentage (ms)", Cols: cols("_ms", 2)}
	for _, pct := range UpdatePercentages {
		pts, err := measure(p, pct, int64(pct), strategies(names...))
		if err != nil {
			return nil, fmt.Errorf("fig7 pct=%d: %w", pct, err)
		}
		costs, times := []any{pct}, []any{pct}
		for _, pt := range pts {
			costs, times = append(costs, pt.CostActual), append(times, pt.TimeMs)
		}
		fig7a.Rows = append(fig7a.Rows, append(costs, pts[0].Tables.Mean))
		fig7b.Rows = append(fig7b.Rows, append(times, pts[0].Tables.Mean))
	}
	return []Table{fig7a, fig7b}, nil
}

// Fig8 regenerates Figure 8: BT(I)'s cost (equation 2.1) tracks the Σ|A_i|
// lower bound on the optimum within a constant factor across four decades
// of memtable size — parallel lines on the paper's log-log axes. The
// operation count follows the paper's formula memtable_size × 100 −
// recordcount, with a 60:40 update:insert mix, for all three
// distributions; update-heavy runs flush fewer than 100 tables, since the
// memtable absorbs updates.
func Fig8(p Params) (Table, error) {
	p = p.withDefaults()
	t := Table{Name: "fig8", Title: "Figure 8: BT(I) cost vs lower bound on optimal (keys, log-log in the paper)",
		Cols: []Column{{"dist", "distribution", 0}, {"memtable", "memtable_keys", 0}, {"sstables", "sstables", 0},
			{"BT(I) cost", "cost", 0}, {"LOPT", "lopt", 0}, {"cost/LOPT", "cost_over_lopt", 2}}}
	for _, dist := range distributions {
		for _, ms := range Fig8MemtableSizes {
			// At ms=10 the load phase alone provides the ms×100 writes.
			pm := p
			pm.Distribution, pm.MemtableKeys = dist, ms
			pm.OperationCount = max(0, ms*Fig8TargetTables-p.RecordCount)
			pts, err := measure(pm, 60, int64(ms), strategies("BT(I)"))
			if err != nil {
				return t, fmt.Errorf("fig8 ms=%d: %w", ms, err)
			}
			pt := pts[0]
			t.Rows = append(t.Rows, []any{dist.String(), ms, pt.Tables.Mean, pt.CostSimple, pt.LOPT, ratio(pt.CostSimple, pt.LOPT)})
		}
	}
	return t, nil
}

// Fig9a regenerates Figure 9a: SMALLESTINPUT's cost against its time as
// the update percentage sweeps 0→100, for all three distributions. The
// paper uses it to validate the cost model: time grows almost linearly
// with cost.
func Fig9a(p Params) (Table, error) {
	t := Table{Name: "fig9a", Title: "Figure 9a: SI cost vs time, update percentage sweep"}
	return fig9(p, t, Column{"update%", "update_pct", 0}, UpdatePercentages,
		func(p Params, pct int) (Params, int) { return p, pct })
}

// Fig9b regenerates Figure 9b: SMALLESTINPUT's cost against its time as the
// operation count (data size) grows, at the Section 5.3 update:insert
// ratio of 60:40.
func Fig9b(p Params) (Table, error) {
	t := Table{Name: "fig9b", Title: "Figure 9b: SI cost vs time, operationcount sweep"}
	return fig9(p, t, Column{"opcount", "operation_count", 0}, Fig9bOperationCounts,
		func(p Params, ops int) (Params, int) { p.OperationCount = ops; return p, 60 })
}

// fig9 measures SI at each x of xs under every distribution; at gives the
// workload and update percentage of x.
func fig9(p Params, t Table, x Column, xs []int, at func(Params, int) (Params, int)) (Table, error) {
	p = p.withDefaults()
	t.Cols = []Column{{"dist", "distribution", 0}, x, {"cost (keys)", "cost", 0}, {"time (ms)", "time_ms", 2}}
	for _, dist := range distributions {
		p.Distribution = dist
		for _, v := range xs {
			pv, pct := at(p, v)
			pts, err := measure(pv, pct, int64(v), strategies("SI"))
			if err != nil {
				return t, fmt.Errorf("%s %s=%d: %w", t.Name, x.CSV, v, err)
			}
			t.Rows = append(t.Rows, []any{dist.String(), v, pts[0].CostActual, pts[0].TimeMs})
		}
	}
	return t, nil
}

// OptGap is an extension experiment the paper could not run: it compares
// every heuristic (plus the FREQ f-approximation) against the true optimum
// computed by the subset DP on small YCSB-generated instances of about
// `tables` sstables, one per trial. The paper's Section 5.3 had to use
// LOPT = Σ|A_i| instead; the gap between the mean cost/LOPT and the mean
// cost/OPT shows how loose that bound is.
func OptGap(p Params, tables int, trials int) (Table, error) {
	p = p.withDefaults()
	t := Table{Name: "optgap", Title: "Optimality gap vs exact DP optimum (extension; ratio 1.00 = optimal)",
		Cols: []Column{{"strategy", "strategy", 0}, {"mean cost/OPT", "mean_cost_over_opt", 3},
			{"worst cost/OPT", "worst_cost_over_opt", 3}, {"mean cost/LOPT", "mean_cost_over_lopt", 3}, {"trials", "trials", 0}}}
	if tables < 2 || tables > compaction.MaxOptimalN {
		return t, fmt.Errorf("optgap: tables must be in [2,%d], got %d", compaction.MaxOptimalN, tables)
	}
	if trials <= 0 {
		trials = 5
	}
	solvers := append([]solver{optimum}, strategies(append(compaction.EvaluatedStrategies(), "LM")...)...)
	solvers = append(solvers, freq)
	// One run per trial at a 50:50 mix, ops ≈ memtable × tables.
	p.Runs, p.RecordCount, p.OperationCount = 1, p.MemtableKeys, p.MemtableKeys*tables-p.MemtableKeys
	overOPT, overLOPT := make([][]float64, len(solvers)), make([][]float64, len(solvers))
	for trial := 0; trial < trials; trial++ {
		pts, err := measure(p, 50, int64(trial)*101, solvers)
		if err != nil {
			return t, fmt.Errorf("optgap trial %d: %w", trial, err)
		}
		for i, pt := range pts {
			overOPT[i] = append(overOPT[i], pt.CostSimple.Mean/pts[0].CostSimple.Mean)
			overLOPT[i] = append(overLOPT[i], pt.CostSimple.Mean/pt.LOPT.Mean)
		}
	}
	for i, s := range solvers[1:] {
		t.Rows = append(t.Rows, []any{s.name, NewStat(overOPT[i+1]).Mean, slices.Max(overOPT[i+1]), NewStat(overLOPT[i+1]).Mean, trials})
	}
	return t, nil
}

// KSweep is an ablation of the merge fan-in k (K-WAYMERGING), which the
// paper fixes to 2: SI and BT(I) at each k of ks on the same instances.
// Larger k means fewer, fatter merges, so cost (each key is rewritten
// fewer times) and running time fall, which is why the paper's model
// allows k-way merging in the first place. The steps column counts the
// schedule's merges.
func KSweep(p Params, updatePct int, ks []int) (Table, error) {
	p = p.withDefaults()
	if len(ks) == 0 {
		ks = []int{2, 3, 4, 8}
	}
	t := Table{Name: "ablation_k", Title: "Ablation: merge fan-in k (K-WAYMERGING)",
		Cols: []Column{{"strategy", "strategy", 0}, {"k", "k", 0}, {"cost (keys)", "cost", 0},
			{"merge steps", "steps", 0}, {"time (ms)", "time_ms", 2}, {"cost/LOPT", "cost_over_lopt", 2}}}
	names := []string{"SI", "BT(I)"}
	rows := make([][][]any, len(names))
	for _, k := range ks {
		if k < 2 {
			return t, fmt.Errorf("ksweep: k = %d", k)
		}
		p.K = k
		pts, err := measure(p, updatePct, 0, strategies(names...))
		if err != nil {
			return t, fmt.Errorf("ksweep k=%d: %w", k, err)
		}
		for i, pt := range pts {
			rows[i] = append(rows[i], []any{names[i], k, pt.CostActual, pt.Steps.Mean, pt.TimeMs.Mean, ratio(pt.CostActual, pt.LOPT)})
		}
	}
	t.Rows = slices.Concat(rows...)
	return t, nil
}

// HLLSweep is an ablation of the HyperLogLog precision behind the practical
// SMALLESTOUTPUT, which the paper leaves unstated. It quantifies Section
// 5.2's observation that "the cost of SO and BT(O) is sensitive to the
// error in cardinality estimation": a lower precision is faster per
// estimate but makes worse merge choices. The first row is SO on exact
// cardinalities, the reference of the last column.
func HLLSweep(p Params, updatePct int, precisions []uint8) (Table, error) {
	p = p.withDefaults()
	if len(precisions) == 0 {
		precisions = []uint8{6, 8, 10, 12, 14}
	}
	t := Table{Name: "ablation_hll", Title: "Ablation: SMALLESTOUTPUT cardinality estimation precision",
		Cols: []Column{{"estimator", "estimator", 0}, {"cost (keys)", "cost", 0}, {"time (ms)", "time_ms", 2}, {"cost vs exact", "cost_over_exact", 4}}}
	solvers := strategies("SO(exact)")
	for _, prec := range precisions {
		solvers = append(solvers, soAt(prec))
	}
	pts, err := measure(p, updatePct, 0, solvers)
	if err != nil {
		return t, fmt.Errorf("hllsweep: %w", err)
	}
	for i, pt := range pts {
		name := solvers[i].name
		if i == 0 {
			name = "exact"
		}
		t.Rows = append(t.Rows, []any{name, pt.CostActual, pt.TimeMs.Mean, ratio(pt.CostActual, pts[0].CostActual)})
	}
	return t, nil
}

// Score compacts inst with every strategy the model accepts, FREQ and, for
// binary merging of at most compaction.MaxOptimalN tables, the DP optimum
// (OPT), and tabulates their costs, cheapest first. seed feeds RANDOM.
func Score(inst *compaction.Instance, k int, seed int64) (Table, error) {
	t := Table{Name: "score",
		Title: fmt.Sprintf("instance: %d tables, %d distinct keys, LOPT = %d", inst.N(), inst.Universe().Len(), inst.LowerBound()),
		Cols:  []Column{{"strategy", "strategy", 0}, {"cost (eq 2.1)", "cost_simple", 0}, {"costactual", "cost_actual", 0}}}
	solvers := append(strategies(compaction.StrategyNames()...), freq)
	if k == 2 && inst.N() <= compaction.MaxOptimalN {
		solvers = append(solvers, optimum)
	}
	results, err := solve(inst, solvers, k, seed, 1)
	if err != nil {
		return t, err
	}
	for i, r := range results {
		t.Rows = append(t.Rows, []any{solvers[i].name, r.CostSimple, r.CostActual})
	}
	slices.SortStableFunc(t.Rows, func(a, b []any) int { return a[1].(int) - b[1].(int) })
	return t, nil
}
