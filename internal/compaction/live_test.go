package compaction

import (
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/hll"
	"repro/internal/keyset"
	"repro/internal/kverr"
)

// liveTablesOf builds the live-statistics view of an instance the way the
// engine would see its sstables: entry counts for cardinalities and
// HyperLogLog sketches for the key sets, at the registry precision.
func liveTablesOf(t *testing.T, inst *Instance) []LiveTable {
	t.Helper()
	tables := make([]LiveTable, inst.N())
	for i, tab := range inst.Tables() {
		s, err := hll.SketchOfUint64s(DefaultHLLPrecision, tab.Set.Keys())
		if err != nil {
			t.Fatalf("sketch: %v", err)
		}
		keys := tab.Set.Keys() // sorted
		tables[i] = LiveTable{
			SizeBytes: uint64(tab.Set.Len()) * 100,
			Entries:   tab.Set.Len(),
			Smallest:  binary.BigEndian.AppendUint64(nil, keys[0]),
			Largest:   binary.BigEndian.AppendUint64(nil, keys[len(keys)-1]),
			Sketch:    s,
		}
	}
	return tables
}

func sortedInts(xs []int) []int {
	out := append([]int(nil), xs...)
	sort.Ints(out)
	return out
}

// TestPickLiveMatchesModelFirstPick is the picker≡model property: for
// random instances, every live-capable strategy picking from table
// statistics selects exactly the tables the paper-model chooser's first
// CHOOSETWOSETS call selects on the equivalent Instance.
func TestPickLiveMatchesModelFirstPick(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(9)
		k := 2 + rng.Intn(3)
		universe := uint64(20 + rng.Intn(200))
		sets := make([]keyset.Set, n)
		for i := range sets {
			size := 1 + rng.Intn(30)
			keys := make([]uint64, size)
			for j := range keys {
				keys[j] = rng.Uint64() % universe
			}
			sets[i] = keyset.New(keys...)
		}
		inst := NewInstance(sets...)
		if inst.Validate() != nil {
			continue // a duplicate-heavy draw can produce an empty set
		}
		seed := rng.Int63()
		live := liveTablesOf(t, inst)
		for _, strategy := range LiveStrategies() {
			chooser, err := NewChooserByName(strategy, seed)
			if err != nil {
				t.Fatalf("%s: %v", strategy, err)
			}
			sc, err := Run(inst, k, chooser)
			if err != nil {
				t.Fatalf("%s: Run: %v", strategy, err)
			}
			want := make([]int, 0, k)
			for _, nd := range sc.Steps[0].Inputs {
				want = append(want, nd.TableID)
			}
			got, err := PickLive(live, strategy, k, seed)
			if err != nil {
				t.Fatalf("%s: PickLive: %v", strategy, err)
			}
			wantS, gotS := sortedInts(want), sortedInts(got)
			if len(wantS) != len(gotS) {
				t.Fatalf("trial %d %s: model picked %v, live picked %v", trial, strategy, wantS, gotS)
			}
			for i := range wantS {
				if wantS[i] != gotS[i] {
					t.Fatalf("trial %d %s: model picked %v, live picked %v", trial, strategy, wantS, gotS)
				}
			}
		}
	}
}

// TestPickLiveDegradesWithoutSketches: strategies that rank by union size
// still produce a valid pick when sketches are missing (tables written
// before the sketch extension), falling back to the disjoint-sum estimate.
func TestPickLiveDegradesWithoutSketches(t *testing.T) {
	tables := []LiveTable{
		{Entries: 10}, {Entries: 3}, {Entries: 7}, {Entries: 5},
	}
	for _, strategy := range []string{"SO", "BT(O)"} {
		got, err := PickLive(tables, strategy, 2, 1)
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		// Disjoint sums make the two smallest tables the best pair.
		want := []int{1, 3}
		gotS := sortedInts(got)
		if len(gotS) != 2 || gotS[0] != want[0] || gotS[1] != want[1] {
			t.Fatalf("%s: got %v, want %v", strategy, gotS, want)
		}
	}
}

// TestPickLiveEdgeCases covers the trivial and error paths.
func TestPickLiveEdgeCases(t *testing.T) {
	if got, err := PickLive([]LiveTable{{Entries: 1}}, "SI", 4, 1); err != nil || got != nil {
		t.Fatalf("single table: got %v, %v; want nil pick", got, err)
	}
	if _, err := PickLive(make([]LiveTable, 3), "SI", 1, 1); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := PickLive(make([]LiveTable, 3), "LM", 2, 1); err == nil {
		t.Fatal("LM accepted for live picking")
	}
	if _, err := PickLive(make([]LiveTable, 3), "bogus", 2, 1); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	for _, name := range LiveStrategies() {
		if !IsLiveStrategy(name) {
			t.Fatalf("LiveStrategies returned non-live %q", name)
		}
	}
}

// planInstance draws n tables of 200–3000 keys. Range-disjoint tables
// slice one ascending key sequence; otherwise keys are uniform over a
// universe small enough that tables overlap heavily.
func planInstance(rng *rand.Rand, n int, rangeDisjoint bool) *Instance {
	sets := make([]keyset.Set, n)
	next := uint64(1)
	for i := range sets {
		keys := make([]uint64, 200+rng.Intn(2800))
		for j := range keys {
			if rangeDisjoint {
				next += 1 + uint64(rng.Intn(1000))
				keys[j] = next
			} else {
				keys[j] = uint64(rng.Intn(12000))
			}
		}
		sets[i] = keyset.New(keys...)
	}
	return NewInstance(sets...)
}

// stepIDs flattens a schedule to its merges: each step's input node IDs in
// chooser order, then its output ID.
func stepIDs(sc *Schedule) [][]int {
	out := make([][]int, len(sc.Steps))
	for i, st := range sc.Steps {
		for _, in := range st.Inputs {
			out[i] = append(out[i], in.ID)
		}
		out[i] = append(out[i], st.Output.ID)
	}
	return out
}

// exactCostActual executes a planned schedule's merge tree on the
// instance's real key sets and returns the cost the merges would count.
func exactCostActual(sc *Schedule, inst *Instance) int {
	sets := make(map[int]keyset.Set)
	for i, tab := range inst.Tables() {
		sets[i] = tab.Set
	}
	cost := 0
	for _, st := range sc.Steps {
		var in []keyset.Set
		for _, nd := range st.Inputs {
			in = append(in, sets[nd.ID])
			cost += sets[nd.ID].Len()
		}
		sets[st.Output.ID] = keyset.UnionAll(in...)
		cost += sets[st.Output.ID].Len()
	}
	return cost
}

// TestPlanMatchesModel is the planner≡model property. Planned from
// statistics alone, a schedule is step for step the one Run produces on the
// exact key sets whenever the statistics determine it: for the strategies
// that never look at sizes (BT, CHAIN, RANDOM) always, for SO and BT(O)
// always too (persisted sketches are the model's sketches), and for SI and
// BT(I) when the tables' key ranges are disjoint, where a merge output's
// size is known exactly. Where the planner must estimate — SI and BT(I) over
// overlapping tables — the merges it schedules cost within 3 % of the exact
// run's, and so does every schedule's own estimate of its cost.
func TestPlanMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(19)
		k := 2 + rng.Intn(4)
		disjoint := trial%2 == 0
		inst := planInstance(rng, n, disjoint)
		live := liveTablesOf(t, inst)
		seed := rng.Int63()
		for _, strategy := range LiveStrategies() {
			modelChooser, _ := NewChooserByName(strategy, seed)
			model, err := Run(inst, k, modelChooser)
			if err != nil {
				t.Fatalf("%s: Run: %v", strategy, err)
			}
			planChooser, _ := NewChooserByName(strategy, seed)
			plan, err := Plan(live, k, planChooser)
			if err != nil {
				t.Fatalf("%s: Plan: %v", strategy, err)
			}
			exact := disjoint || (strategy != "SI" && strategy != "BT(I)")
			if exact && !reflect.DeepEqual(stepIDs(plan), stepIDs(model)) {
				t.Fatalf("trial %d %s (n=%d k=%d disjoint=%v):\nplanned %v\nmodel   %v",
					trial, strategy, n, k, disjoint, stepIDs(plan), stepIDs(model))
			}
			want := float64(model.CostActual())
			if got := float64(exactCostActual(plan, inst)); math.Abs(got-want) > 0.03*want {
				t.Errorf("trial %d %s: planned merges cost %v keys, exact-set schedule %v", trial, strategy, got, want)
			}
			if got := float64(plan.CostActual()); math.Abs(got-want) > 0.03*want {
				t.Errorf("trial %d %s: plan estimates its cost at %v keys, exact-set schedule %v", trial, strategy, got, want)
			}
		}
	}
}

// TestPlanDegradesWithoutUsableSketches: a merge that includes a table with
// no sketch, or one of another precision, is sized as the disjoint sum and
// carries no sketch onward — never a wrong estimate, never an error — while
// merges of well-sketched tables keep estimating.
func TestPlanDegradesWithoutUsableSketches(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := planInstance(rng, 9, false)
	live := liveTablesOf(t, inst)
	live[2].Sketch = nil
	odd, err := hll.SketchOfUint64s(10, inst.Table(5).Set.Keys())
	if err != nil {
		t.Fatal(err)
	}
	live[5].Sketch = odd
	for _, strategy := range []string{"SO", "BT(O)", "SI"} {
		chooser, _ := NewChooserByName(strategy, 1)
		plan, err := Plan(live, 4, chooser)
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		tainted := map[int]bool{2: true, 5: true}
		for _, st := range plan.Steps {
			sum, largest, bad := 0, 0, false
			for _, in := range st.Inputs {
				sum += in.Len()
				largest = max(largest, in.Len())
				bad = bad || tainted[in.ID]
			}
			out := st.Output
			tainted[out.ID] = bad
			switch {
			case bad && (out.Live.Sketch != nil || out.Len() != sum):
				t.Errorf("%s: node %d merges an unsketched table: size %d (inputs sum to %d), sketch %v",
					strategy, out.ID, out.Len(), sum, out.Live.Sketch != nil)
			case !bad && (out.Live.Sketch == nil || out.Len() < largest || out.Len() > sum):
				t.Errorf("%s: node %d: size %d outside [%d, %d] or sketch lost", strategy, out.ID, out.Len(), largest, sum)
			}
		}
		if !tainted[plan.Root.ID] {
			t.Errorf("%s: root did not inherit the missing sketch", strategy)
		}
	}
	// With no sketches at all the plan is the disjoint-sum one throughout.
	bare := make([]LiveTable, len(live))
	for i, lt := range live {
		bare[i] = LiveTable{Entries: lt.Entries}
	}
	chooser, _ := NewChooserByName("SO", 1)
	plan, err := Plan(bare, 2, chooser)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := plan.Root.Len(), inst.LowerBound(); got != want {
		t.Errorf("sketch-less root size %d, want the disjoint sum %d", got, want)
	}
}

// TestPlanRefusesExactStrategies: SO(exact) and LM rank by exact set
// operations, which only Run has, so Plan refuses them and NewLiveChooser
// answers their names, like an unknown one, with ErrConfig.
func TestPlanRefusesExactStrategies(t *testing.T) {
	live := liveTablesOf(t, planInstance(rand.New(rand.NewSource(3)), 7, false))
	for _, strategy := range []string{"SO(exact)", "LM"} {
		chooser, _ := NewChooserByName(strategy, 1)
		if plan, err := Plan(live, 3, chooser); err == nil {
			t.Errorf("%s: Plan made %v, want an error", strategy, stepIDs(plan))
		}
	}
	for _, name := range []string{"SO(exact)", "LM", "nope", ""} {
		if _, err := NewLiveChooser(name, 1); !errors.Is(err, kverr.ErrConfig) {
			t.Errorf("NewLiveChooser(%q) = %v, want ErrConfig", name, err)
		}
	}
}

// TestPlanRunsBaselines: Plan drives the engine's baselines to full
// schedules from statistics alone, whatever the tables' sizes, ranges and
// levels; its first step is PickLive's pick; and every leveled merge lands
// at its deepest input's level, one deeper when its inputs share a level.
func TestPlanRunsBaselines(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	for trial := 0; trial < 40; trial++ {
		n, k := 2+rng.Intn(19), 2+rng.Intn(4)
		live := liveTablesOf(t, planInstance(rng, n, trial%2 == 0))
		for i := range live {
			live[i].SizeBytes = uint64(1 + rng.Intn(4)<<(10*rng.Intn(2)))
			live[i].Level = rng.Intn(3)
		}
		for _, name := range Baselines() {
			chooser, err := NewLiveChooser(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := Plan(live, k, chooser)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if err := plan.Validate(); err != nil || len(plan.Steps) == 0 {
				t.Fatalf("trial %d %s: not a full schedule of %d tables: %v", trial, name, n, err)
			}
			first, err := PickLive(live, name, k, 1)
			if err != nil {
				t.Fatal(err)
			}
			var want []int
			for _, in := range plan.Steps[0].Inputs {
				want = append(want, in.TableID)
			}
			if !reflect.DeepEqual(first, want) {
				t.Fatalf("trial %d %s: PickLive picked %v, Plan's first step %v", trial, name, first, want)
			}
			for _, st := range plan.Steps {
				shallowest, deepest := st.Inputs[0].Live.Level, 0
				for _, in := range st.Inputs {
					shallowest, deepest = min(shallowest, in.Live.Level), max(deepest, in.Live.Level)
				}
				want := deepest
				if name == "leveled" && shallowest == deepest {
					want++
				}
				if st.Output.Live.Level != want {
					t.Fatalf("trial %d %s: merge of levels %d..%d lands at %d, want %d", trial, name, shallowest, deepest, st.Output.Live.Level, want)
				}
			}
		}
	}
}

// TestLiveEntriesMatchesExactShadowing is the estimator's model test: over
// random key sets with their own sequence ranges, each table's estimate is
// within the HyperLogLog error of the exact |T \ ∪ newer| — each of the two
// estimates it subtracts within 4σ of its exact union, since the raw
// estimator's bias just above its switch from linear counting (2.5·2^p keys)
// adds to the standard error when the two straddle it — never above
// Entries, and the same whatever order the tables come in.
func TestLiveEntriesMatchesExactShadowing(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sigma := hll.MustNew(DefaultHLLPrecision).StdError()
	worst := 0.0
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(9)
		universe := 500 + rng.Intn(40_000)
		sets := make([][]uint64, n)
		tables := make([]LiveTable, n)
		for i, seq := range rng.Perm(n) {
			keys := make([]uint64, 1+rng.Intn(universe/2))
			for j := range keys {
				keys[j] = uint64(rng.Intn(universe))
			}
			sets[i] = keyset.New(keys...).Keys()
			sketch, err := hll.SketchOfUint64s(DefaultHLLPrecision, sets[i])
			if err != nil {
				t.Fatal(err)
			}
			tables[i] = LiveTable{Entries: len(sets[i]), MaxSeq: uint64(seq+1) * 1000, Sketch: sketch}
		}
		got := LiveEntries(tables)
		byseq := rng.Perm(n)
		sort.Slice(byseq, func(a, b int) bool { return tables[byseq[a]].MaxSeq > tables[byseq[b]].MaxSeq })
		newer := map[uint64]bool{}
		for _, i := range byseq {
			before := len(newer)
			for _, k := range sets[i] {
				newer[k] = true
			}
			exact := len(newer) - before
			if got[i] > tables[i].Entries || got[i] < 1 {
				t.Fatalf("trial %d table %d: estimate %d outside [1, %d]", trial, i, got[i], tables[i].Entries)
			}
			tol := 4*sigma*float64(before+len(newer)) + 1
			if err := math.Abs(float64(got[i] - exact)); err > tol {
				t.Fatalf("trial %d table %d: estimate %d, exact %d (|T| %d, |newer| %d): error %.0f above %.0f",
					trial, i, got[i], exact, len(sets[i]), before, err, tol)
			} else if before > 0 {
				worst = max(worst, err/(sigma*float64(before+len(newer))))
			}
		}
		perm := rng.Perm(n)
		shuffled := make([]LiveTable, n)
		for i, j := range perm {
			shuffled[i] = tables[j]
		}
		for i, e := range LiveEntries(shuffled) {
			if e != got[perm[i]] {
				t.Fatalf("trial %d: estimates depend on the order the tables come in", trial)
			}
		}
	}
	t.Logf("worst error: %.2fσ of |newer| + |newer ∪ T|", worst)
}

// TestLiveEntriesClamps: the newest table and every table the estimate
// cannot size keep their exact counts, a shadowed table keeps 1, an empty
// one 0, and no estimate exceeds the count it stands for.
func TestLiveEntriesClamps(t *testing.T) {
	sketch := func(p uint8, from, to int) *hll.Sketch {
		s := hll.MustNew(p)
		for k := from; k < to; k++ {
			s.AddUint64(uint64(k))
		}
		return s
	}
	for _, tc := range []struct {
		what   string
		tables []LiveTable
		want   []int
	}{
		{"newest exact, shadowed 1", []LiveTable{
			{Entries: 1234, MaxSeq: 30, Sketch: sketch(12, 0, 1000)},
			{Entries: 1000, MaxSeq: 20, Sketch: sketch(12, 0, 1000)},
			{Entries: 500, MaxSeq: 10, Sketch: sketch(12, 0, 500)},
		}, []int{1234, 1, 1}},
		{"nil sketch exact", []LiveTable{
			{Entries: 1000, MaxSeq: 30, Sketch: sketch(12, 0, 1000)},
			{Entries: 1000, MaxSeq: 20},
			{Entries: 10, MaxSeq: 10, Sketch: sketch(12, 1000, 2000)},
		}, []int{1000, 1000, 10}},
		{"other precision exact and out of the union", []LiveTable{
			{Entries: 1000, MaxSeq: 30, Sketch: sketch(12, 0, 1000)},
			{Entries: 2000, MaxSeq: 20, Sketch: sketch(10, 0, 2000)},
			{Entries: 10, MaxSeq: 10, Sketch: sketch(12, 1000, 2000)},
		}, []int{1000, 2000, 10}},
		{"newest without a sketch: the next seeds the union", []LiveTable{
			{Entries: 7, MaxSeq: 30},
			{Entries: 1234, MaxSeq: 20, Sketch: sketch(12, 0, 1000)},
			{Entries: 1000, MaxSeq: 10, Sketch: sketch(12, 0, 1000)},
		}, []int{7, 1234, 1}},
		{"empty table", []LiveTable{
			{Entries: 1000, MaxSeq: 30, Sketch: sketch(12, 0, 1000)},
			{Entries: 0, MaxSeq: 0, Sketch: sketch(12, 0, 0)},
			{Entries: 0, MaxSeq: 0},
		}, []int{1000, 0, 0}},
		{"never above Entries", []LiveTable{
			{Entries: 1000, MaxSeq: 30, Sketch: sketch(12, 0, 1000)},
			{Entries: 10, MaxSeq: 20, Sketch: sketch(12, 1000, 3000)},
		}, []int{1000, 10}},
	} {
		if got := LiveEntries(tc.tables); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: LiveEntries = %v, want %v", tc.what, got, tc.want)
		}
	}
}

// TestOneStepPickAliases: a single Pick under SI and under BT(I) takes the
// same tables, and so does one under CHAIN and under BT. BALANCETREE's Init
// puts every leaf at level 1, so its first merge is over all of them: the k
// smallest under BT(I), as SI takes, and the first k in table order under
// BT, as CHAIN takes. (The engine's minor picks are such single steps.)
func TestOneStepPickAliases(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		tables := make([]LiveTable, 2+rng.Intn(12))
		for i := range tables {
			lo := rng.Uint64() % 1000
			tables[i] = LiveTable{
				SizeBytes: uint64(1 + rng.Intn(5000)),
				Entries:   1 + rng.Intn(60), // ties are common
				MaxSeq:    rng.Uint64(),
				Smallest:  binary.BigEndian.AppendUint64(nil, lo),
				Largest:   binary.BigEndian.AppendUint64(nil, lo+rng.Uint64()%1000),
			}
		}
		k := 2 + rng.Intn(4)
		for _, pair := range [][2]string{{"SI", "BT(I)"}, {"CHAIN", "BT"}} {
			var picks [2][]int
			for i, name := range pair {
				chooser, err := NewLiveChooser(name, 1)
				if err != nil {
					t.Fatal(err)
				}
				sc, err := Pick(tables, k, chooser)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, leaf := range sc.Leaves {
					picks[i] = append(picks[i], leaf.TableID)
				}
			}
			if !reflect.DeepEqual(picks[0], picks[1]) {
				t.Fatalf("trial %d, k=%d: %s picked %v, %s picked %v", trial, k, pair[0], picks[0], pair[1], picks[1])
			}
		}
	}
}
