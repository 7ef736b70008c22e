package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/compaction"
	"repro/internal/keyset"
)

// TestNumSteps checks the merge steps the k ablation reports: the
// schedule's own, not a count that assumes every merge takes min(k, live)
// tables. BALANCETREE merges only the sets at its lowest level, so it can
// take more steps than that count: 3 rather than 2 at n = 5, k = 3.
func TestNumSteps(t *testing.T) {
	cases := []struct {
		strategy string
		n, k     int
		want     int
	}{
		{"SI", 1, 2, 0},
		{"SI", 2, 2, 1},
		{"SI", 16, 2, 15},
		{"SI", 16, 4, 5},
		{"SI", 9, 4, 3},
		{"SI", 5, 8, 1},
		{"BT(I)", 5, 3, 3},
		{"BT(I)", 7, 4, 3},
		{"BT(I)", 10, 4, 4},
		{"BT(I)", 13, 3, 7},
	}
	for _, c := range cases {
		sets := make([]keyset.Set, c.n)
		for i := range sets {
			sets[i] = keyset.Range(uint64(100*i), uint64(100*i+10+i))
		}
		inst := compaction.NewInstance(sets...)
		res, err := runStrategy(inst, strategies(c.strategy)[0], c.k, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps != c.want {
			t.Errorf("%s n=%d k=%d: %d steps, want %d", c.strategy, c.n, c.k, res.Steps, c.want)
		}
	}
	// The column is the schedules' mean: one instance per run here.
	p := smallParams()
	p.Runs = 1
	p.OperationCount = 4000
	ks, err := KSweep(p, 0, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := GenerateTables(WorkloadConfig(p, 0, p.Seed), p.MemtableKeys)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range ks.Rows {
		res, err := runStrategy(inst, strategies(row[0].(string))[0], 3, 1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := cell(t, ks, i, "merge steps"); got != float64(res.Steps) {
			t.Errorf("%s at k=3 over %d tables: step column %v, schedule %d", row[0], inst.N(), got, res.Steps)
		}
	}
}

func TestKSweepLargerKCheaper(t *testing.T) {
	p := smallParams()
	p.Runs = 1
	ks, err := KSweep(p, 20, []int{2, 4, 8})
	if err != nil {
		t.Fatalf("KSweep: %v", err)
	}
	if len(ks.Rows) != 6 { // 2 strategies × 3 k values
		t.Fatalf("rows = %d", len(ks.Rows))
	}
	byStrat := map[string][]int{}
	for i, row := range ks.Rows {
		byStrat[row[0].(string)] = append(byStrat[row[0].(string)], i)
	}
	for strat, rs := range byStrat {
		// Cost and step count must fall monotonically with k.
		for i := 1; i < len(rs); i++ {
			prev, cur := rs[i-1], rs[i]
			if c0, c1 := cell(t, ks, prev, "cost (keys)"), cell(t, ks, cur, "cost (keys)"); c1 > c0 {
				t.Errorf("%s: cost rose from k=%v (%.0f) to k=%v (%.0f)",
					strat, ks.Rows[prev][1], c0, ks.Rows[cur][1], c1)
			}
			if cell(t, ks, cur, "merge steps") >= cell(t, ks, prev, "merge steps") {
				t.Errorf("%s: steps did not fall with k", strat)
			}
		}
		if cell(t, ks, rs[0], "cost/LOPT") < 1 {
			t.Errorf("%s: cost below LOPT", strat)
		}
	}
	if _, err := KSweep(p, 20, []int{1}); err == nil {
		t.Errorf("k=1 accepted")
	}
}

func TestHLLSweepPrecisionImprovesCost(t *testing.T) {
	p := smallParams()
	p.Runs = 1
	p.OperationCount = 15000
	hs, err := HLLSweep(p, 40, []uint8{6, 14})
	if err != nil {
		t.Fatalf("HLLSweep: %v", err)
	}
	if len(hs.Rows) != 3 { // exact + 2 precisions
		t.Fatalf("rows = %d", len(hs.Rows))
	}
	if hs.Rows[0][0] != "exact" || cell(t, hs, 0, "cost vs exact") != 1 {
		t.Errorf("exact row = %v", hs.Rows[0])
	}
	// Higher precision must not be materially worse than lower precision,
	// and no estimator should beat exact by more than noise.
	low, high := cell(t, hs, 1, "cost vs exact"), cell(t, hs, 2, "cost vs exact")
	if high > low*1.02 {
		t.Errorf("p=14 (%.4f) worse than p=6 (%.4f)", high, low)
	}
	for i := 1; i < len(hs.Rows); i++ {
		if r := cell(t, hs, i, "cost vs exact"); r < 0.98 {
			t.Errorf("%s beat exact by %.4f — estimator bug?", hs.Rows[i][0], r)
		}
	}
}

// TestFormatAblations checks the ablations' text tables.
func TestFormatAblations(t *testing.T) {
	p := smallParams()
	p.Runs, p.OperationCount = 1, 2000
	ks, err := KSweep(p, 40, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	hs, err := HLLSweep(p, 40, []uint8{12})
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := ks.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if out := b.String(); !strings.Contains(out, "fan-in") || !strings.Contains(out, "SI") {
		t.Errorf("k ablation = %q", out)
	}
	b.Reset()
	if err := hs.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if out := b.String(); !strings.Contains(out, "exact") || !strings.Contains(out, "HLL p=12") {
		t.Errorf("HLL ablation = %q", out)
	}
}

// TestScoreInstance checks Score on the paper's working example: SO on
// exact cardinalities and the DP optimum both cost 40, FREQ is scored, no
// strategy beats the optimum, and the optimum is left out above k = 2.
func TestScoreInstance(t *testing.T) {
	score, err := Score(compaction.WorkingExample(), 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	simple := map[string]float64{}
	for i, row := range score.Rows {
		simple[row[0].(string)] = cell(t, score, i, "cost (eq 2.1)")
		if i > 0 && simple[row[0].(string)] < cell(t, score, i-1, "cost (eq 2.1)") {
			t.Errorf("row %d (%s) is cheaper than the row before it", i, row[0])
		}
	}
	if simple["SO(exact)"] != 40 {
		t.Errorf("SO(exact) = %v", simple["SO(exact)"])
	}
	opt, ok := simple["OPT"]
	if !ok || opt != 40 {
		t.Errorf("OPT = %v, %v", opt, ok)
	}
	if _, ok := simple["FREQ"]; !ok {
		t.Errorf("FREQ missing")
	}
	for name, cost := range simple {
		if cost < opt {
			t.Errorf("%s cost %v beats OPT %v", name, cost, opt)
		}
	}
	score3, err := Score(compaction.WorkingExample(), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range score3.Rows {
		if row[0] == "OPT" {
			t.Errorf("OPT present for k=3")
		}
	}
}
