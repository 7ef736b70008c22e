package experiments

import (
	"math/rand"
	"testing"

	"repro/internal/compaction"
	"repro/internal/keyset"
	"repro/internal/ycsb"
)

// baseMemtableKeys is the memtable capacity of the baseConfig workloads.
const baseMemtableKeys = 1000

func baseConfig(updatePct int, dist ycsb.Distribution, seed int64) ycsb.Config {
	return ycsb.Config{
		RecordCount:      1000,
		OperationCount:   20000,
		UpdateProportion: float64(updatePct) / 100,
		InsertProportion: 1 - float64(updatePct)/100,
		Distribution:     dist,
		Seed:             seed,
	}
}

func TestGenerateTablesBasic(t *testing.T) {
	inst, err := GenerateTables(baseConfig(0, ycsb.Latest, 1), baseMemtableKeys)
	if err != nil {
		t.Fatalf("GenerateTables: %v", err)
	}
	// 21000 distinct inserted keys at 1000 keys/table → 21 tables.
	if inst.N() != 21 {
		t.Errorf("tables = %d, want 21", inst.N())
	}
	if err := inst.Validate(); err != nil {
		t.Errorf("instance invalid: %v", err)
	}
}

func TestUpdateHeavyProducesFewerOverlappingTables(t *testing.T) {
	insertHeavy, err := GenerateTables(baseConfig(0, ycsb.Latest, 1), baseMemtableKeys)
	if err != nil {
		t.Fatal(err)
	}
	updateHeavy, err := GenerateTables(baseConfig(100, ycsb.Latest, 1), baseMemtableKeys)
	if err != nil {
		t.Fatal(err)
	}
	if updateHeavy.N() >= insertHeavy.N() {
		t.Errorf("update-heavy generated %d tables, insert-heavy %d; want fewer",
			updateHeavy.N(), insertHeavy.N())
	}
	// With updates the universe stays near recordcount; with inserts it
	// grows with the op count.
	if u := updateHeavy.Universe().Len(); u > 5000 {
		t.Errorf("update-heavy universe = %d, want ≈ recordcount", u)
	}
	if u := insertHeavy.Universe().Len(); u != 21000 {
		t.Errorf("insert-heavy universe = %d, want 21000", u)
	}
}

func TestGenerateTablesErrors(t *testing.T) {
	cfg := baseConfig(0, ycsb.Uniform, 1)
	if _, err := GenerateTables(cfg, 0); err == nil {
		t.Errorf("zero memtable capacity accepted")
	}
	cfg = baseConfig(0, ycsb.Uniform, 1)
	cfg.RecordCount = 0
	cfg.OperationCount = 0
	if _, err := GenerateTables(cfg, baseMemtableKeys); err == nil {
		t.Errorf("empty workload accepted")
	}
	cfg = baseConfig(0, ycsb.Uniform, 1)
	cfg.UpdateProportion = -1
	if _, err := GenerateTables(cfg, baseMemtableKeys); err == nil {
		t.Errorf("invalid workload accepted")
	}
}

func TestRunStrategyAllEvaluated(t *testing.T) {
	inst, err := GenerateTables(baseConfig(40, ycsb.Latest, 2), baseMemtableKeys)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []string{"SI", "SO", "BT(I)", "BT(O)", "RANDOM"} {
		res, err := runStrategy(inst, strategies(strat)[0], 2, 1, 4)
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		if res.CostSimple < res.LowerBound {
			t.Errorf("%s: cost %d below LOPT %d", strat, res.CostSimple, res.LowerBound)
		}
		if res.CostActual <= res.CostSimple {
			// costactual counts internals twice, so it exceeds simple cost
			// whenever at least one merge happens.
			t.Errorf("%s: costactual %d ≤ simple %d", strat, res.CostActual, res.CostSimple)
		}
		if res.Reported <= 0 || res.PlanAndMerge <= 0 {
			t.Errorf("%s: non-positive times %+v", strat, res)
		}
		if res.Tables != inst.N() {
			t.Errorf("%s: tables = %d", strat, res.Tables)
		}
	}
}

func TestRunStrategyUnknown(t *testing.T) {
	inst, err := GenerateTables(baseConfig(0, ycsb.Uniform, 1), baseMemtableKeys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runStrategy(inst, strategies("nope")[0], 2, 0, 1); err == nil {
		t.Errorf("unknown strategy accepted")
	}
}

func TestCostDecreasesWithUpdates(t *testing.T) {
	// The headline shape of Figure 7a: as the update percentage grows the
	// compaction cost falls, for every strategy.
	for _, strat := range []string{"SI", "BT(I)", "RANDOM"} {
		cost0, cost100 := 0, 0
		for _, pct := range []int{0, 100} {
			inst, err := GenerateTables(baseConfig(pct, ycsb.Latest, 3), baseMemtableKeys)
			if err != nil {
				t.Fatal(err)
			}
			res, err := runStrategy(inst, strategies(strat)[0], 2, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			if pct == 0 {
				cost0 = res.CostActual
			} else {
				cost100 = res.CostActual
			}
		}
		if cost100 >= cost0 {
			t.Errorf("%s: cost at 100%% updates (%d) not below 0%% updates (%d)", strat, cost100, cost0)
		}
	}
}

func TestRandomWorstAtLowUpdates(t *testing.T) {
	// Figure 7a: RANDOM is clearly worse than the informed strategies at
	// low update percentages.
	inst, err := GenerateTables(baseConfig(0, ycsb.Latest, 4), baseMemtableKeys)
	if err != nil {
		t.Fatal(err)
	}
	si, err := runStrategy(inst, strategies("SI")[0], 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := runStrategy(inst, strategies("RANDOM")[0], 2, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if float64(rnd.CostActual) < 1.05*float64(si.CostActual) {
		t.Errorf("RANDOM (%d) not clearly worse than SI (%d) at 0%% updates", rnd.CostActual, si.CostActual)
	}
}

// criticalPathCost is the cost, in keys read and written, of the costliest
// chain of dependent merges in sched: what its merges cost end to end on
// unbounded workers, in the units in which CostActual is what they cost on
// one.
func criticalPathCost(sched *compaction.Schedule) int {
	finish := make(map[*compaction.Node]int)
	for _, st := range sched.Steps {
		start := 0
		for _, in := range st.Inputs {
			start = max(start, finish[in])
		}
		finish[st.Output] = start + st.InputSize() + st.Output.Len()
	}
	return finish[sched.Root]
}

// TestBTParallelismExceedsSI: BALANCETREE's merges run four abreast, which
// the simulator exploits where the paper's SMALLESTINPUT implementation
// merges one at a time, and its critical path — the costliest chain of
// dependent merges — is about half its total cost, so enough workers take
// about half the sequential time. Counted rather than timed, so a loaded
// machine cannot fail it.
func TestBTParallelismExceedsSI(t *testing.T) {
	inst, err := GenerateTables(baseConfig(20, ycsb.Latest, 5), baseMemtableKeys)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := runStrategy(inst, strategies("BT(I)")[0], 2, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bt.Parallelism < 4 {
		t.Errorf("BT parallelism = %d, want ≥ 4", bt.Parallelism)
	}
	chooser, err := compaction.NewChooserByName("BT(I)", 1)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := compaction.Run(inst, 2, chooser)
	if err != nil {
		t.Fatal(err)
	}
	crit, total := criticalPathCost(sched), sched.CostActual()
	if total != bt.CostActual {
		t.Fatalf("schedule costs %d keys, runStrategy's %d", total, bt.CostActual)
	}
	if share := float64(crit) / float64(total); share > 0.55 {
		t.Errorf("BT critical path %d keys is %.2f of the %d-key total, want ≤ 0.55", crit, share, total)
	}
}

func TestOverheadNeverNegative(t *testing.T) {
	inst, err := GenerateTables(baseConfig(50, ycsb.Zipfian, 6), baseMemtableKeys)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []string{"SI", "SO"} {
		res, err := runStrategy(inst, strategies(strat)[0], 2, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Overhead() < 0 {
			t.Errorf("%s overhead negative", strat)
		}
	}
}

func TestKeyTableDedupes(t *testing.T) {
	kt := newKeyTable(3)
	if kt.Add(1) || kt.Add(1) || kt.Add(1) {
		t.Errorf("re-adding the same key should not fill the memtable")
	}
	if kt.Len() != 1 {
		t.Errorf("Len = %d, want 1", kt.Len())
	}
	kt.Add(2)
	if !kt.Add(3) {
		t.Errorf("third distinct key should report full")
	}
}

func TestKeyTableFlushResets(t *testing.T) {
	kt := newKeyTable(10)
	for k := uint64(0); k < 5; k++ {
		kt.Add(k * 10)
	}
	s := kt.Flush()
	if s.Len() != 5 {
		t.Errorf("flushed set size = %d", s.Len())
	}
	if want := keyset.New(0, 10, 20, 30, 40); !s.Equal(want) {
		t.Errorf("flushed set = %v, want %v", s, want)
	}
	if !kt.Empty() {
		t.Errorf("memtable not empty after flush")
	}
	if !kt.Flush().Empty() {
		t.Errorf("flush of empty memtable should be empty set")
	}
}

func TestKeyTableDegenerateCapacity(t *testing.T) {
	kt := newKeyTable(0)
	if !kt.Add(1) {
		t.Errorf("capacity-clamped memtable should fill at one key")
	}
}

func TestKeyTableSimulationShape(t *testing.T) {
	// Update-heavy streams (few distinct keys) must produce smaller
	// sstables than insert-heavy streams, the effect driving Figure 7.
	r := rand.New(rand.NewSource(1))
	flushSizes := func(distinct int) []int {
		kt := newKeyTable(100)
		var sizes []int
		for i := 0; i < 2000; i++ {
			if kt.Add(uint64(r.Intn(distinct))) {
				sizes = append(sizes, kt.Flush().Len())
			}
		}
		return sizes
	}
	insertHeavy := flushSizes(1 << 30)
	updateHeavy := flushSizes(120)
	if len(insertHeavy) == 0 || len(updateHeavy) == 0 {
		t.Fatalf("no flushes: %d, %d", len(insertHeavy), len(updateHeavy))
	}
	if len(updateHeavy) >= len(insertHeavy) {
		t.Errorf("update-heavy flushed %d times, insert-heavy %d times; expected fewer for updates",
			len(updateHeavy), len(insertHeavy))
	}
}

// Len returns the number of distinct keys buffered.
func (kt *keyTable) Len() int { return len(kt.keys) }
