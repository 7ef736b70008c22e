package experiments

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/vfs"
)

var update = flag.Bool("update", false, "rewrite testdata/engine_matrix.json and README.md's engine table from a fresh EngineMatrix run, and testdata/figures.golden")

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
// table README.md renders from it; -update rewrites both. Its delayed
// subtest re-runs one mix of it with the flusher and the merges slowed.
// MajorBytesWritten also counts what the major's scratch intermediates
// carry besides entries: each carries a one-word filter, 3 to 5 KB less
// per cell than the full-size filled filter they carried before.
func TestEngineMatrixGolden(t *testing.T) {
	start := time.Now()
	cells, err := EngineMatrix(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%d cells in %v", len(cells), time.Since(start))
	checkEngineClaims(t, cells)
	t.Run("delayed", func(t *testing.T) { checkDelayedCells(t, cells) })
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

// checkDelayedCells re-runs every policy's cell of the first mix, and
// BT(I) on that mix at four times its ops, on a filesystem that delays each
// table the flusher and the merges create, and requires every cell to equal
// its undelayed twin: where memtables are cut, what each flush holds and
// which tables each pick merges are functions of the write stream alone,
// however slow the flusher is. A delayed writer must wait for the flusher
// at least once, and the long stream must pick at least eight times. The
// long delayed run's filesystem holds its first minor merge until a
// memtable rotates, and the rotation, not the hold's timeout, must end it.
func checkDelayedCells(t *testing.T, cells []EngineCell) {
	long := EngineMixes[0]
	long.Ops *= 4
	type run struct {
		mix    EngineMix
		policy string
	}
	// The long stream goes first, so that the short ones fill in around it:
	// run 0 undelayed, run 1 its delayed twin.
	runs := []run{{long, "BT(I)"}, {long, "BT(I)"}}
	var want []EngineCell
	for _, c := range cells {
		if c.Mix == long.Name {
			runs = append(runs, run{EngineMixes[0], c.Policy})
			want = append(want, c)
		}
	}
	got, stalls := make([]EngineCell, len(runs)), make([]int, len(runs))
	start, dir := time.Now(), t.TempDir()
	held := &delaying{unsynced: unsynced{vfs.Default}, rng: rand.New(rand.NewSource(1)), hold: true}
	err := inParallel(len(runs), func(i int) (err error) {
		var fsys vfs.FS = &delaying{unsynced: unsynced{vfs.Default}, rng: rand.New(rand.NewSource(int64(i)))}
		switch i {
		case 0:
			fsys = unsynced{vfs.Default}
		case 1:
			fsys = held
		}
		got[i], stalls[i], err = engineCell(filepath.Join(dir, strconv.Itoa(i)), runs[i].mix, runs[i].policy, fsys)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want = append([]EngineCell{got[0]}, want...)
	total := 0
	for i, c := range got[1:] {
		if c != want[i] {
			t.Errorf("%s %s at %d ops delayed:\n%+v\nundelayed:\n%+v", c.Mix, c.Policy, runs[i+1].mix.Ops, c, want[i])
		}
		total += stalls[i+1]
	}
	t.Logf("%d delayed cells (%d write stalls) and one undelayed in %v", len(runs)-1, total, time.Since(start))
	if total == 0 {
		t.Error("the delays never made a writer wait; they test nothing")
	}
	if !held.rotated {
		t.Error("the first minor merge's output was held until its timeout: no memtable rotated meanwhile")
	}
	if held.mergeInputs != engineK {
		t.Errorf("%d tables were removed before the held one's successor was created, want the merge's %d inputs",
			held.mergeInputs, engineK)
	}
	if picks := got[1].MinorPicks; picks < 8 {
		t.Errorf("BT(I) at %d ops made %d minor picks, want at least 8", long.Ops, picks)
	}
}

// delaying is unsynced with a seeded random sleep before each table is
// created: 0-2 ms, and one time in four 5 ms more, long enough for the
// writer to fill the next 256 KiB memtable and wait for the flusher (an
// undelayed writer fills one faster than the flusher writes it).
//
// With hold set it also holds back table 2k+1, the first minor merge's
// output (BT(I)'s pick is due at 2k tables), until the writer has created
// a WAL segment since table 2k was created. That segment is a memtable
// rotation, which can only come once flush 2k has cleared imm, so a
// memtable rotates while the merge is in flight. The merge runs with mu
// released, so the writer is free to rotate; after 10 s the hold gives up.
type delaying struct {
	unsynced
	hold bool
	mu   sync.Mutex
	rng  *rand.Rand
	// tables and removes count .sst creates and removes; rotation is closed
	// by the first WAL segment created after table 2k.
	tables, removes int
	rotation        chan struct{}
	// rotated: the hold ended by a rotation. mergeInputs: the tables
	// removed before table 2k+2 was created, the held merge's inputs.
	rotated     bool
	mergeInputs int
}

func (d *delaying) Create(path string) (vfs.File, error) {
	if filepath.Ext(path) != ".sst" {
		d.mu.Lock()
		if d.rotation != nil && strings.HasPrefix(filepath.Base(path), "wal.log.") {
			select {
			case <-d.rotation:
			default:
				close(d.rotation)
			}
		}
		d.mu.Unlock()
		return d.unsynced.Create(path)
	}
	d.mu.Lock()
	d.tables++
	var hold chan struct{}
	if d.hold {
		switch d.tables {
		case 2 * engineK:
			d.rotation = make(chan struct{})
		case 2*engineK + 1:
			hold = d.rotation
		case 2*engineK + 2:
			d.mergeInputs = d.removes
		}
	}
	delay := time.Duration(d.rng.Intn(2000)) * time.Microsecond
	if d.rng.Intn(4) == 0 {
		delay += 5 * time.Millisecond
	}
	d.mu.Unlock()
	if hold != nil {
		select {
		case <-hold:
			d.rotated = true
		case <-time.After(10 * time.Second):
		}
	}
	time.Sleep(delay)
	return d.unsynced.Create(path)
}

func (d *delaying) Remove(path string) error {
	if filepath.Ext(path) == ".sst" {
		d.mu.Lock()
		d.removes++
		d.mu.Unlock()
	}
	return d.unsynced.Remove(path)
}

// TestEngineCellReportsCloseError: a cell whose engine fails to close
// fails, here on a filesystem whose WAL segments fail to close.
func TestEngineCellReportsCloseError(t *testing.T) {
	_, _, err := engineCell(t.TempDir(), EngineMixes[0], "BT(I)", walCloseFails{unsynced{vfs.Default}})
	if !errors.Is(err, errWALClose) {
		t.Fatalf("engineCell = %v, want the engine's close error", err)
	}
}

var errWALClose = errors.New("WAL segment close failed")

type walCloseFails struct{ unsynced }

func (w walCloseFails) Create(path string) (vfs.File, error) {
	f, err := w.unsynced.Create(path)
	if err != nil || !strings.HasPrefix(filepath.Base(path), "wal.log") {
		return f, err
	}
	return walCloseFailsFile{f}, nil
}

type walCloseFailsFile struct{ vfs.File }

func (walCloseFailsFile) Close() error { return errWALClose }
