package experiments

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/compaction"
	"repro/internal/ycsb"
)

const figuresGolden = "testdata/figures.golden"

// TestFigureCostsPinned pins every cell but the times of Figure 7, Figure
// 9a, both ablations, the optimality gap and a score of a dumped instance,
// at tiny parameters, to testdata/figures.golden: the tables' CSV without
// their _ms columns. The file was written before the figures shared one
// measurement loop, and only the BT(I) merge-step cells have moved since,
// to the schedules' own step counts. -update rewrites it.
func TestFigureCostsPinned(t *testing.T) {
	p := Params{OperationCount: 2000, RecordCount: 200, MemtableKeys: 100, Runs: 2, K: 2, Workers: 2,
		Distribution: ycsb.Latest, Seed: 3}
	tables, err := Fig7(p)
	if err != nil {
		t.Fatal(err)
	}
	add := func(tb Table, err error) {
		if err != nil {
			t.Fatal(err)
		}
		tables = append(tables, tb)
	}
	add(Fig9a(p))
	add(OptGap(p, 8, 2))
	add(KSweep(p, 40, nil))
	add(HLLSweep(p, 40, nil))
	// The instance compactsim -dump writes, read back as -score reads it.
	ps := p
	ps.OperationCount = 600
	inst, err := GenerateTables(WorkloadConfig(ps, 60, ps.Seed), ps.MemtableKeys)
	if err != nil {
		t.Fatal(err)
	}
	var dump bytes.Buffer
	if err := compaction.WriteInstance(&dump, inst); err != nil {
		t.Fatal(err)
	}
	if inst, err = compaction.ParseInstance(&dump); err != nil {
		t.Fatal(err)
	}
	add(Score(inst, ps.K, ps.Seed))

	var got bytes.Buffer
	for _, tb := range tables {
		var c bytes.Buffer
		if err := tb.WriteCSV(&c); err != nil {
			t.Fatal(err)
		}
		recs, err := csv.NewReader(&c).ReadAll()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "== %s\n%s\n", tb.Name, tb.Title)
		w := csv.NewWriter(&got)
		for _, rec := range recs {
			var kept []string
			for i, f := range rec {
				if h := strings.TrimSuffix(strings.TrimSuffix(recs[0][i], "_mean"), "_std"); !strings.HasSuffix(h, "_ms") {
					kept = append(kept, f)
				}
			}
			w.Write(kept)
		}
		w.Flush()
	}
	if *update {
		if err := os.WriteFile(figuresGolden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(figuresGolden)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	line := func(ls []string, i int) string {
		if i < len(ls) {
			return ls[i]
		}
		return "(none)"
	}
	for i := 0; i < max(len(gl), len(wl)); i++ {
		if line(gl, i) != line(wl, i) {
			t.Errorf("%s line %d:\n got %s\nwant %s", figuresGolden, i+1, line(gl, i), line(wl, i))
		}
	}
}
