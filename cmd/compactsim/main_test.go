package main

import (
	"fmt"
	"path/filepath"
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
// own operation counts, at a tiny scale and checks each one's header.
func TestFiguresRunEndToEnd(t *testing.T) {
	for fig, header := range map[string]string{
		"7":        "Figure 7b: compaction time vs update percentage",
		"9a":       "Figure 9a: SI cost vs time",
		"9b":       "Figure 9b: SI cost vs time",
		"optgap":   "Optimality gap vs exact DP optimum",
		"ablation": "Ablation: SMALLESTOUTPUT cardinality estimation precision",
	} {
		var out strings.Builder
		if err := run([]string{"-fig", fig, "-ops", "2000", "-runs", "1", "-optgap-trials", "1"}, &out); err != nil {
			t.Fatalf("-fig %s: %v", fig, err)
		}
		if !strings.Contains(out.String(), header) {
			t.Errorf("-fig %s printed no %q:\n%s", fig, header, out.String())
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
	if err := run([]string{"-score", path}, &scored); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("instance: %d tables", n); !strings.HasPrefix(scored.String(), want) {
		t.Errorf("-score printed %q, want it to begin %q", scored.String(), want)
	}
	if !strings.Contains(scored.String(), "BT(I)") {
		t.Errorf("-score scored no BT(I):\n%s", scored.String())
	}
}
