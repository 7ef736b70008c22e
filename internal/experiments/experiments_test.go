package experiments

import (
	"math"
	"strings"
	"testing"
	"time"

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
	if got := s.String(); !strings.Contains(got, "±") {
		t.Errorf("String = %q", got)
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
	rows, err := Fig7(smallParams())
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	if len(rows) != len(UpdatePercentages) {
		t.Fatalf("rows = %d", len(rows))
	}
	first, last := rows[0], rows[len(rows)-1]
	// Shape 1: for every strategy, cost decreases from 0% to 100% updates.
	for _, s := range first.Strategies {
		if last.Cells[s].Cost.Mean >= first.Cells[s].Cost.Mean {
			t.Errorf("%s: cost did not decrease with updates (%v → %v)",
				s, first.Cells[s].Cost.Mean, last.Cells[s].Cost.Mean)
		}
	}
	// Shape 2: RANDOM is the worst strategy at 0% updates.
	rnd := first.Cells["RANDOM"].Cost.Mean
	for _, s := range []string{"SI", "SO", "BT(I)", "BT(O)"} {
		if rnd <= first.Cells[s].Cost.Mean {
			t.Errorf("RANDOM (%v) not worse than %s (%v) at 0%% updates", rnd, s, first.Cells[s].Cost.Mean)
		}
	}
	// Shape 3: at 100% updates the strategies converge (within ~15%).
	var lo, hi float64
	for _, s := range last.Strategies {
		c := last.Cells[s].Cost.Mean
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
	if first.Cells["SI"].Cost.Mean > 1.05*first.Cells["SO"].Cost.Mean {
		t.Errorf("SI (%v) unexpectedly above SO (%v)", first.Cells["SI"].Cost.Mean, first.Cells["SO"].Cost.Mean)
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
		rows, err := Fig7(p)
		if err != nil {
			t.Fatalf("%v: %v", dist, err)
		}
		first, last := rows[0], rows[len(rows)-1]
		for _, s := range first.Strategies {
			if last.Cells[s].Cost.Mean >= first.Cells[s].Cost.Mean {
				t.Errorf("%v/%s: cost did not fall with updates", dist, s)
			}
		}
		rnd := first.Cells["RANDOM"].Cost.Mean
		for _, s := range []string{"SI", "BT(I)"} {
			if rnd <= first.Cells[s].Cost.Mean {
				t.Errorf("%v: RANDOM (%v) not worse than %s (%v) at 0%% updates",
					dist, rnd, s, first.Cells[s].Cost.Mean)
			}
		}
	}
}

func TestFig8ConstantFactor(t *testing.T) {
	p := smallParams()
	p.Runs = 1
	rows, err := Fig8(p)
	if err != nil {
		t.Fatalf("Fig8: %v", err)
	}
	if len(rows) != 3*len(Fig8MemtableSizes) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		// BT(I) is a (⌈log n⌉+1)-approximation (Lemma 4.1); the observed
		// ratio must respect that bound for the actual table count. The
		// count itself is approximate: memtable dedup absorbs updates, so
		// update-heavy runs flush fewer than the nominal 100 tables
		// ("sstables may be smaller and vary in size", Section 5.1).
		bound := math.Ceil(math.Log2(r.Tables.Mean)) + 1
		if r.Ratio < 1 || r.Ratio > bound {
			t.Errorf("%s ms=%d: ratio %.2f out of [1,%.0f]", r.Distribution, r.MemtableKeys, r.Ratio, bound)
		}
		if r.Tables.Mean < Fig8TargetTables/2 || r.Tables.Mean > 2.2*Fig8TargetTables {
			t.Errorf("%s ms=%d: generated %.0f tables, want within 2x of 100", r.Distribution, r.MemtableKeys, r.Tables.Mean)
		}
	}
	// Constant factor: ratios within each distribution vary by < 2.5x.
	byDist := map[string][]float64{}
	for _, r := range rows {
		byDist[r.Distribution] = append(byDist[r.Distribution], r.Ratio)
	}
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
	rows, err := Fig9b(p)
	if err != nil {
		t.Fatalf("Fig9b: %v", err)
	}
	if len(rows) != 3*len(Fig9bOperationCounts) {
		t.Fatalf("rows = %d", len(rows))
	}
	// Per distribution, both cost and time must increase from the smallest
	// to the largest operation count (the near-linear relation of §5.4).
	byDist := map[string][]Fig9Row{}
	for _, r := range rows {
		byDist[r.Distribution] = append(byDist[r.Distribution], r)
	}
	for dist, rs := range byDist {
		first, last := rs[0], rs[len(rs)-1]
		if last.Cost.Mean <= first.Cost.Mean {
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
			cfg := workloadConfig(p, 60, p.Seed)
			cfg.Distribution, cfg.OperationCount = dist, ops
			inst, err := GenerateTables(cfg, p.MemtableKeys)
			if err != nil {
				t.Fatal(err)
			}
			for rep := 0; rep < 5; rep++ {
				res, err := runStrategy(inst, "SI", p.K, p.Seed, 1)
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
	rows, err := Fig9a(p)
	if err != nil {
		t.Fatalf("Fig9a: %v", err)
	}
	if len(rows) != 3*len(UpdatePercentages) {
		t.Fatalf("rows = %d", len(rows))
	}
}

func TestOptGap(t *testing.T) {
	p := smallParams()
	p.MemtableKeys = 500
	rows, err := OptGap(p, 8, 3)
	if err != nil {
		t.Fatalf("OptGap: %v", err)
	}
	if len(rows) != 7 { // 5 evaluated + LM + FREQ
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.MeanRatio < 1-1e-9 {
			t.Errorf("%s: mean ratio %.3f below 1 (beat the optimum?)", r.Strategy, r.MeanRatio)
		}
		if r.WorstRatio < r.MeanRatio-1e-9 {
			t.Errorf("%s: worst %.3f below mean %.3f", r.Strategy, r.WorstRatio, r.MeanRatio)
		}
		if r.MeanLOPTRatio < r.MeanRatio-1e-9 {
			// LOPT ≤ OPT, so cost/LOPT ≥ cost/OPT.
			t.Errorf("%s: LOPT ratio %.3f below OPT ratio %.3f", r.Strategy, r.MeanLOPTRatio, r.MeanRatio)
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

func TestFormatters(t *testing.T) {
	p := smallParams()
	p.Runs = 1
	p.OperationCount = 5000
	f7, err := Fig7(p)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatFig7(f7)
	for _, want := range []string{"Figure 7a", "Figure 7b", "RANDOM", "update%"} {
		if !strings.Contains(out, want) {
			t.Errorf("FormatFig7 missing %q", want)
		}
	}
	if FormatFig7(nil) != "" {
		t.Errorf("FormatFig7(nil) not empty")
	}

	var csv strings.Builder
	if err := WriteFig7CSV(&csv, f7); err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(csv.String(), "\n"); lines != 1+len(f7)*5 {
		t.Errorf("fig7 csv lines = %d", lines)
	}

	f8 := []Fig8Row{{MemtableKeys: 10, Distribution: "latest", Ratio: 1.5}}
	if !strings.Contains(FormatFig8(f8), "Figure 8") {
		t.Errorf("FormatFig8 output wrong")
	}
	var csv8 strings.Builder
	if err := WriteFig8CSV(&csv8, f8); err != nil {
		t.Fatal(err)
	}
	f9 := []Fig9Row{{X: 20, Distribution: "uniform"}}
	if !strings.Contains(FormatFig9("Figure 9a", "update%", f9), "Figure 9a") {
		t.Errorf("FormatFig9 output wrong")
	}
	var csv9 strings.Builder
	if err := WriteFig9CSV(&csv9, "update_pct", f9); err != nil {
		t.Fatal(err)
	}
	og := []OptGapRow{{Strategy: "SI", MeanRatio: 1.01, WorstRatio: 1.05, MeanLOPTRatio: 1.3, Trials: 5}}
	if !strings.Contains(FormatOptGap(og), "SI") {
		t.Errorf("FormatOptGap output wrong")
	}
}
