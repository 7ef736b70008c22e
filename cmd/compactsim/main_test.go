package main

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestOutOfRangeFlagsRejected: a flag outside its range fails before any
// work, with an error naming the flag, instead of running the default.
func TestOutOfRangeFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		flag string
		args []string
	}{
		{"-k", []string{"-k", "1"}},
		{"-runs", []string{"-runs", "0"}},
		{"-ops", []string{"-ops", "-5"}},
		{"-records", []string{"-records", "-1"}},
		{"-memtable", []string{"-memtable", "0"}},
		{"-optgap-tables", []string{"-optgap-tables", "0"}},
		{"-optgap-trials", []string{"-optgap-trials", "0"}},
		{"-workers", []string{"-workers", "-1"}},
		{"-fig", []string{"-fig", "7c"}},
	} {
		var out strings.Builder
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.flag+" ") {
			t.Errorf("run(%q) = %v, want an error naming %s", tc.args, err, tc.flag)
		}
		if out.Len() != 0 {
			t.Errorf("run(%q) printed %q before failing", tc.args, out.String())
		}
	}
}

// TestFiguresRunEndToEnd runs every figure but Figure 8, which sweeps its
// own operation counts, at a tiny scale with -csv: each prints exactly the
// tables it names (7a and 7b one each) and writes one CSV file per table
// printed.
func TestFiguresRunEndToEnd(t *testing.T) {
	titles := map[string]string{
		"fig7a":        "Figure 7a: compaction cost vs update percentage",
		"fig7b":        "Figure 7b: compaction time vs update percentage",
		"fig9a":        "Figure 9a: SI cost vs time",
		"fig9b":        "Figure 9b: SI cost vs time",
		"optgap":       "Optimality gap vs exact DP optimum",
		"ablation_k":   "Ablation: merge fan-in k",
		"ablation_hll": "Ablation: SMALLESTOUTPUT cardinality estimation precision",
	}
	for fig, want := range map[string][]string{
		"7":        {"fig7a", "fig7b"},
		"7a":       {"fig7a"},
		"7b":       {"fig7b"},
		"9a":       {"fig9a"},
		"9b":       {"fig9b"},
		"optgap":   {"optgap"},
		"ablation": {"ablation_k", "ablation_hll"},
	} {
		dir := t.TempDir()
		var out strings.Builder
		if err := run([]string{"-fig", fig, "-ops", "2000", "-runs", "1", "-optgap-trials", "1", "-csv", dir}, &out); err != nil {
			t.Fatalf("-fig %s: %v", fig, err)
		}
		for name, title := range titles {
			_, err := os.Stat(filepath.Join(dir, name+".csv"))
			if printed, wanted := strings.Contains(out.String(), title), slices.Contains(want, name); printed != wanted || (err == nil) != wanted {
				t.Errorf("-fig %s: %s printed %v, its CSV written %v; want %v", fig, name, printed, err == nil, wanted)
			}
		}
	}
}

// TestDumpThenScoreRoundTrips: the instance -dump writes is the one -score
// reads back.
func TestDumpThenScoreRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "instance.txt")
	var dumped, scored strings.Builder
	if err := run([]string{"-dump", path, "-ops", "2000"}, &dumped); err != nil {
		t.Fatal(err)
	}
	var n int
	if _, err := fmt.Sscanf(dumped.String(), "wrote %d tables", &n); err != nil || n < 2 {
		t.Fatalf("-dump printed %q", dumped.String())
	}
	dir := t.TempDir()
	if err := run([]string{"-score", path, "-csv", dir}, &scored); err != nil {
		t.Fatal(err)
	}
	if csv, err := os.ReadFile(filepath.Join(dir, "score.csv")); err != nil || !strings.HasPrefix(string(csv), "strategy,cost_simple,cost_actual\n") {
		t.Errorf("-score -csv wrote %q, %v", csv, err)
	}
	if want := fmt.Sprintf("instance: %d tables", n); !strings.HasPrefix(scored.String(), want) {
		t.Errorf("-score printed %q, want it to begin %q", scored.String(), want)
	}
	if !strings.Contains(scored.String(), "BT(I)") {
		t.Errorf("-score scored no BT(I):\n%s", scored.String())
	}
}
