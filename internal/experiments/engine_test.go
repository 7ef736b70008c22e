package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/engine_matrix.json and README.md's engine table from a fresh EngineMatrix run")

const (
	engineMatrixFile = "testdata/engine_matrix.json"
	resultsDoc       = "../../README.md"
	tableBegin       = "<!-- engine matrix: generated by go test ./internal/experiments -run TestEngineMatrixGolden -update -->\n"
	tableEnd         = "<!-- engine matrix: end -->\n"
)

// engineReport is the committed matrix file's shape.
type engineReport struct {
	Mixes []EngineMix  `json:"mixes"`
	Cells []EngineCell `json:"cells"`
}

// TestEngineMatrixGolden recomputes the engine matrix and compares it, count
// for count, with the committed testdata/engine_matrix.json and with the
// table README.md renders from it; -update rewrites both.
func TestEngineMatrixGolden(t *testing.T) {
	start := time.Now()
	cells, err := EngineMatrix(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d cells in %v", len(cells), time.Since(start))
	checkEngineClaims(t, cells)
	got, err := json.MarshalIndent(engineReport{EngineMixes, cells}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	doc, err := os.ReadFile(resultsDoc)
	if err != nil {
		t.Fatal(err)
	}
	begin, end := bytes.Index(doc, []byte(tableBegin)), bytes.Index(doc, []byte(tableEnd))
	if begin < 0 || end < begin {
		t.Fatalf("%s has no engine matrix markers", resultsDoc)
	}
	gotDoc := append(append(append([]byte(nil), doc[:begin+len(tableBegin)]...), FormatEngineMatrix(cells)...), doc[end:]...)
	if *update {
		if err := os.WriteFile(engineMatrixFile, got, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(resultsDoc, gotDoc, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(engineMatrixFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		var old engineReport
		_ = json.Unmarshal(want, &old) // a file that does not parse reports every cell
		for i, c := range cells {
			if i >= len(old.Cells) || c != old.Cells[i] {
				t.Errorf("cell %d is now %+v", i, c)
			}
		}
		t.Fatalf("%s differs from a fresh run; rerun with -update if the change is meant", engineMatrixFile)
	}
	if !bytes.Equal(gotDoc, doc) {
		t.Fatalf("%s's engine table differs from the matrix; rerun with -update", resultsDoc)
	}
}

// checkEngineClaims checks that the matrix covers every policy on every mix,
// that BT(I) picks at least three times on each, and what
// README.md says of the table, so that an -update the prose no
// longer describes fails.
func checkEngineClaims(t *testing.T, cells []EngineCell) {
	t.Helper()
	byMix := map[string]map[string]EngineCell{}
	for _, c := range cells {
		if byMix[c.Mix] == nil {
			byMix[c.Mix] = map[string]EngineCell{}
		}
		byMix[c.Mix][c.Policy] = c
	}
	for _, mix := range EngineMixes {
		m := byMix[mix.Name]
		if len(m) != 10 {
			t.Fatalf("%s: %d policies, want the 10 besides none", mix.Name, len(m))
		}
		if n := m["BT(I)"].MinorPicks; n < 3 {
			t.Errorf("%s: BT(I) made %d minor picks, want at least 3", mix.Name, n)
		}
		same := func(a, b string) {
			x, y := m[a], m[b]
			x.Policy, y.Policy = "", ""
			if x != y {
				t.Errorf("%s: %s %+v and %s %+v differ", mix.Name, a, m[a], b, m[b])
			}
		}
		same("SI", "BT(I)")
		same("CHAIN", "BT")
		same("SO", "BT(O)")
		for _, p := range []string{"size-tiered", "leveled"} {
			if n := m[p].VersionsPurged; n != 0 {
				t.Errorf("%s: %s purged %d versions", mix.Name, p, n)
			}
		}
		bt, bti := m["BT"], m["BT(I)"]
		for p, c := range m {
			if c.VersionsPurged > bt.VersionsPurged {
				t.Errorf("%s: %s purged more versions than BT", mix.Name, p)
			}
		}
		for _, p := range []string{"SI", "SO", "BT(I)", "BT(O)", "RANDOM"} {
			if m[p].SpaceAmp <= bt.SpaceAmp {
				t.Errorf("%s: %s leaves no more space amplification than BT", mix.Name, p)
			}
		}
		if r := (bt.WriteAmp - 1) / (bti.WriteAmp - 1); r < 1.3 || r >= 1.8 {
			t.Errorf("%s: BT writes %.2fx BT(I)'s compaction bytes, not 1.3-1.8x", mix.Name, r)
		}
		if bti.WriteAmp >= m["size-tiered"].WriteAmp || bti.WriteAmp >= m["SO"].WriteAmp {
			t.Errorf("%s: BT(I) writes no less than size-tiered or SO", mix.Name)
		}
		lv := m["leveled"]
		for p, c := range m {
			if p != "leveled" && (c.WriteAmp >= lv.WriteAmp || c.TablesLeft < lv.TablesLeft || c.MajorCost < lv.MajorCost) {
				t.Errorf("%s: %s writes as much as leveled or leaves fewer tables or a cheaper major", mix.Name, p)
			}
		}
	}
}
