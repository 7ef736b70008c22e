package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/compaction"
	"repro/internal/ycsb"
)

// smallParams keeps test runtime reasonable while preserving the shapes.
func smallParams() Params {
	return Params{
		OperationCount: 20000,
		RecordCount:    1000,
		MemtableKeys:   1000,
		Runs:           2,
		K:              2,
		Workers:        4,
		Distribution:   ycsb.Latest,
		Seed:           42,
	}
}

// cell returns the number in row of tb under the column headed head: a
// Stat's mean, or a float64 or an int.
func cell(t *testing.T, tb Table, row int, head string) float64 {
	t.Helper()
	for i, c := range tb.Cols {
		if c.Head != head {
			continue
		}
		switch v := tb.Rows[row][i].(type) {
		case Stat:
			return v.Mean
		case float64:
			return v
		case int:
			return float64(v)
		}
	}
	t.Fatalf("%s has no numeric column %q", tb.Name, head)
	return 0
}

func TestNewStat(t *testing.T) {
	if s := NewStat(nil); s.Mean != 0 || s.Std != 0 {
		t.Errorf("empty stat = %+v", s)
	}
	if s := NewStat([]float64{5}); s.Mean != 5 || s.Std != 0 {
		t.Errorf("singleton stat = %+v", s)
	}
	s := NewStat([]float64{2, 4, 6})
	if s.Mean != 4 {
		t.Errorf("mean = %v", s.Mean)
	}
	if math.Abs(s.Std-2) > 1e-9 {
		t.Errorf("std = %v, want 2", s.Std)
	}
	// A Stat cell prints as "mean ± std" at its column's precision, and as
	// two CSV fields in full.
	if got := strings.Join(fields(NewStat([]float64{0.125, 0.375}), 2), " ± "); got != "0.25 ± 0.18" {
		t.Errorf("text cell = %q", got)
	}
	if got := fields(NewStat([]float64{0.125, 0.125}), -1); len(got) != 2 || got[0] != "0.125" || got[1] != "0" {
		t.Errorf("CSV fields = %q", got)
	}
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if p.OperationCount != 100000 || p.RecordCount != 1000 || p.MemtableKeys != 1000 || p.Runs != 3 || p.K != 2 {
		t.Errorf("DefaultParams = %+v, want the paper's Section 5.2 settings", p)
	}
	var zero Params
	d := zero.withDefaults()
	if d.OperationCount != 100000 || d.Workers <= 0 || d.Seed == 0 {
		t.Errorf("withDefaults = %+v", d)
	}
}

func TestFig7ShapesHold(t *testing.T) {
	tables, err := Fig7(smallParams())
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	cost := tables[0]
	if len(cost.Rows) != len(UpdatePercentages) {
		t.Fatalf("rows = %d", len(cost.Rows))
	}
	first, last := 0, len(cost.Rows)-1
	strats := compaction.EvaluatedStrategies()
	// Shape 1: for every strategy, cost decreases from 0% to 100% updates.
	for _, s := range strats {
		if cell(t, cost, last, s) >= cell(t, cost, first, s) {
			t.Errorf("%s: cost did not decrease with updates (%v → %v)",
				s, cell(t, cost, first, s), cell(t, cost, last, s))
		}
	}
	// Shape 2: RANDOM is the worst strategy at 0% updates.
	rnd := cell(t, cost, first, "RANDOM")
	for _, s := range []string{"SI", "SO", "BT(I)", "BT(O)"} {
		if rnd <= cell(t, cost, first, s) {
			t.Errorf("RANDOM (%v) not worse than %s (%v) at 0%% updates", rnd, s, cell(t, cost, first, s))
		}
	}
	// Shape 3: at 100% updates the strategies converge (within ~15%).
	var lo, hi float64
	for _, s := range strats {
		c := cell(t, cost, last, s)
		if lo == 0 || c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi > 1.3*lo {
		t.Errorf("strategies did not converge at 100%% updates: spread [%v, %v]", lo, hi)
	}
	// Shape 4: SI cost ≤ SO cost at 0% updates (SO pays estimation error;
	// paper: SI and BT(I) marginally lower than BT(O) and SO). Allow a
	// small tolerance since both are near-optimal here.
	if si, so := cell(t, cost, first, "SI"), cell(t, cost, first, "SO"); si > 1.05*so {
		t.Errorf("SI (%v) unexpectedly above SO (%v)", si, so)
	}
}

// TestFig7ShapeHoldsForAllDistributions checks the paper's §5.2 remark
// that the latest-distribution observations "are similar for zipfian and
// uniform": the two headline shapes (cost falls with updates; RANDOM is
// worst at 0% updates) must hold under every distribution.
func TestFig7ShapeHoldsForAllDistributions(t *testing.T) {
	for _, dist := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian} {
		p := smallParams()
		p.Runs = 1
		p.OperationCount = 15000
		p.Distribution = dist
		tables, err := Fig7(p)
		if err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		cost := tables[0]
		first, last := 0, len(cost.Rows)-1
		for _, s := range compaction.EvaluatedStrategies() {
			if cell(t, cost, last, s) >= cell(t, cost, first, s) {
				t.Errorf("%v/%s: cost did not fall with updates", dist, s)
			}
		}
		rnd := cell(t, cost, first, "RANDOM")
		for _, s := range []string{"SI", "BT(I)"} {
			if rnd <= cell(t, cost, first, s) {
				t.Errorf("%v: RANDOM (%v) not worse than %s (%v) at 0%% updates",
					dist, rnd, s, cell(t, cost, first, s))
			}
		}
	}
}

func TestFig8ConstantFactor(t *testing.T) {
	p := smallParams()
	p.Runs = 1
	fig, err := Fig8(p)
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	if len(fig.Rows) != 3*len(Fig8MemtableSizes) {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	byDist := map[string][]float64{}
	for i, row := range fig.Rows {
		dist, ms := row[0].(string), cell(t, fig, i, "memtable")
		ratio, tables := cell(t, fig, i, "cost/LOPT"), cell(t, fig, i, "sstables")
		// BT(I) is a (⌈log n⌉+1)-approximation (Lemma 4.1); the observed
		// ratio must respect that bound for the actual table count. The
		// count itself is approximate: memtable dedup absorbs updates, so
		// update-heavy runs flush fewer than the nominal 100 tables
		// ("sstables may be smaller and vary in size", Section 5.1).
		bound := math.Ceil(math.Log2(tables)) + 1
		if ratio < 1 || ratio > bound {
			t.Errorf("%s ms=%.0f: ratio %.2f out of [1,%.0f]", dist, ms, ratio, bound)
		}
		if tables < Fig8TargetTables/2 || tables > 2.2*Fig8TargetTables {
			t.Errorf("%s ms=%.0f: generated %.0f tables, want within 2x of 100", dist, ms, tables)
		}
		byDist[dist] = append(byDist[dist], ratio)
	}
	// Constant factor: ratios within each distribution vary by < 2.5x.
	for dist, ratios := range byDist {
		lo, hi := ratios[0], ratios[0]
		for _, x := range ratios {
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
		}
		if hi/lo > 2.5 {
			t.Errorf("%s: ratio drift %0.2f–%0.2f is not a constant factor", dist, lo, hi)
		}
	}
}

func TestFig9TimeGrowsWithCost(t *testing.T) {
	p := smallParams()
	p.Runs = 1
	fig, err := Fig9b(p)
	if err != nil {
		t.Fatalf("Fig9b: %v", err)
	}
	if len(fig.Rows) != 3*len(Fig9bOperationCounts) {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
	// Per distribution, both cost and time must increase from the smallest
	// to the largest operation count (the near-linear relation of §5.4).
	byDist := map[string][]float64{}
	for i, row := range fig.Rows {
		byDist[row[0].(string)] = append(byDist[row[0].(string)], cell(t, fig, i, "cost (keys)"))
	}
	for dist, costs := range byDist {
		if costs[len(costs)-1] <= costs[0] {
			t.Errorf("%s: cost did not grow with opcount", dist)
		}
	}
	// Time is checked at the two ends of the sweep only, each end timed as
	// the fastest of several SI merges of one generated instance: a single
	// run's time is at the mercy of whatever else the host runs.
	ends := []int{Fig9bOperationCounts[0], Fig9bOperationCounts[len(Fig9bOperationCounts)-1]}
	for _, dist := range []ycsb.Distribution{ycsb.Uniform, ycsb.Zipfian, ycsb.Latest} {
		var fastest [2]time.Duration
		for i, ops := range ends {
			cfg := WorkloadConfig(p, 60, p.Seed)
			cfg.Distribution, cfg.OperationCount = dist, ops
			inst, err := GenerateTables(cfg, p.MemtableKeys)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 5; rep++ {
				res, err := runStrategy(inst, strategies("SI")[0], p.K, p.Seed, 1)
				if err != nil {
					t.Fatal(err)
				}
				if rep == 0 || res.Reported < fastest[i] {
					fastest[i] = res.Reported
				}
			}
		}
		if fastest[1] <= fastest[0] {
			t.Errorf("%s: time did not grow with opcount (%v → %v)", dist, fastest[0], fastest[1])
		}
	}
}

func TestFig9aRuns(t *testing.T) {
	p := smallParams()
	p.Runs = 1
	p.OperationCount = 10000
	fig, err := Fig9a(p)
	if err != nil {
		t.Fatalf("Fig9a: %v", err)
	}
	if len(fig.Rows) != 3*len(UpdatePercentages) {
		t.Fatalf("rows = %d", len(fig.Rows))
	}
}

func TestOptGap(t *testing.T) {
	p := smallParams()
	p.MemtableKeys = 500
	gap, err := OptGap(p, 8, 3)
	if err != nil {
		t.Fatalf("OptGap: %v", err)
	}
	if len(gap.Rows) != 7 { // 5 evaluated + LM + FREQ
		t.Fatalf("rows = %d", len(gap.Rows))
	}
	for i, row := range gap.Rows {
		s := row[0].(string)
		mean, worst, lopt := cell(t, gap, i, "mean cost/OPT"), cell(t, gap, i, "worst cost/OPT"), cell(t, gap, i, "mean cost/LOPT")
		if mean < 1-1e-9 {
			t.Errorf("%s: mean ratio %.3f below 1 (beat the optimum?)", s, mean)
		}
		if worst < mean-1e-9 {
			t.Errorf("%s: worst %.3f below mean %.3f", s, worst, mean)
		}
		if lopt < mean-1e-9 {
			// LOPT ≤ OPT, so cost/LOPT ≥ cost/OPT.
			t.Errorf("%s: LOPT ratio %.3f below OPT ratio %.3f", s, lopt, mean)
		}
	}
}

func TestOptGapValidation(t *testing.T) {
	if _, err := OptGap(smallParams(), 1, 3); err == nil {
		t.Errorf("tables=1 accepted")
	}
	if _, err := OptGap(smallParams(), 99, 3); err == nil {
		t.Errorf("tables beyond DP limit accepted")
	}
}

// TestFormatters checks the one Table type's two renderings on Figure 7:
// aligned text with each column's precision (7b's times at two decimals),
// and CSV with a Stat column as <name>_mean,<name>_std.
func TestFormatters(t *testing.T) {
	p := smallParams()
	p.Runs = 1
	p.OperationCount = 5000
	tables, err := Fig7(p)
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	for _, tb := range tables {
		if err := tb.WriteText(&text); err != nil {
			t.Fatal(err)
		}
	}
	out := text.String()
	for _, want := range []string{"Figure 7a", "Figure 7b", "RANDOM", "update%"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 7 text missing %q", want)
		}
	}
	times := out[strings.Index(out, "Figure 7b"):]
	for _, line := range strings.Split(strings.TrimSpace(times), "\n")[2:] {
		if strings.Count(line, ".") != 2*len(compaction.EvaluatedStrategies()) {
			t.Errorf("7b row %q does not print every time at two decimals", line)
		}
	}

	var csv strings.Builder
	if err := tables[0].WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+len(tables[0].Rows) {
		t.Errorf("fig7a csv lines = %d", len(lines))
	}
	if want := "update_pct,SI_mean,SI_std,SO_mean,SO_std,"; !strings.HasPrefix(lines[0], want) || !strings.HasSuffix(lines[0], ",sstables") {
		t.Errorf("fig7a csv header = %q", lines[0])
	}
	if fields := strings.Count(lines[1], ",") + 1; fields != 2+2*len(compaction.EvaluatedStrategies()) {
		t.Errorf("fig7a csv row has %d fields: %q", fields, lines[1])
	}
}
