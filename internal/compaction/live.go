package compaction

import (
	"bytes"
	"fmt"
	"sort"
	"strings"

	"repro/internal/hll"
	"repro/internal/kverr"
)

// LiveTable describes one live sstable the way the engine's compaction
// picker sees it: no key data, only the statistics the write path persists
// — entry count (sstable keys are unique, so the count is the
// cardinality), byte size, key bounds from the bounds block, newest
// sequence number, and the per-table HyperLogLog key sketch for overlap
// estimation. Sketch may be nil on tables written before sketches were
// persisted; strategies that rank by union size then degrade to a
// disjointness assumption for the affected pairs.
type LiveTable struct {
	// SizeBytes is the table's file size.
	SizeBytes uint64
	// Entries is the table's key count: exact for a major compaction's
	// plan, and for a minor pick the live count LiveEntries estimates —
	// the keys no table of higher MaxSeq holds.
	Entries int
	// MaxSeq is the newest sequence number the table holds.
	MaxSeq uint64
	// Smallest and Largest bound the table's key range (both inclusive).
	Smallest, Largest []byte
	// Sketch estimates the table's key set; nil when not persisted.
	Sketch *hll.Sketch
	// Level is the table's level in the engine's leveled layout: 0 for
	// fresh flushes and in flat layouts. It is not Node.Level, BALANCETREE's
	// annotation of a merge tree.
	Level int
}

// overlaps reports whether two tables' key ranges intersect. A table
// without bounds (empty) overlaps nothing.
func (t *LiveTable) overlaps(o *LiveTable) bool {
	return t.Smallest != nil && o.Smallest != nil &&
		bytes.Compare(t.Smallest, o.Largest) <= 0 && bytes.Compare(o.Smallest, t.Largest) <= 0
}

// extend widens t's key range to cover o's.
func (t *LiveTable) extend(o *LiveTable) {
	if o.Smallest == nil {
		return
	}
	if t.Smallest == nil || bytes.Compare(o.Smallest, t.Smallest) < 0 {
		t.Smallest = o.Smallest
	}
	if t.Largest == nil || bytes.Compare(o.Largest, t.Largest) > 0 {
		t.Largest = o.Largest
	}
}

// LiveStrategies returns the paper's strategies PickLive accepts, sorted:
// the registry minus the two exact-set strategies.
func LiveStrategies() []string {
	var names []string
	for _, name := range StrategyNames() {
		if IsLiveStrategy(name) {
			names = append(names, name)
		}
	}
	return names
}

// IsLiveStrategy reports whether name is a strategy Plan and PickLive can
// drive from live table statistics: a paper strategy other than the two
// exact-set ones, or one of the engine's baselines (see Baselines). These
// ten are the names the engine accepts (see NewLiveChooser).
func IsLiveStrategy(name string) bool {
	switch name {
	case "SI", "SO", "BT", "BT(I)", "BT(O)", "CHAIN", "RANDOM", "leveled", "size-tiered", "threshold":
		return true
	default:
		return false
	}
}

// PickLive selects the next group of tables to merge by strategy name,
// driven by live per-table statistics instead of key sets: the leaves of
// Pick's schedule, as indices into tables. For a paper strategy that is the
// first CHOOSETWOSETS call the model makes on the equivalent instance — leaf
// IDs are the slice indices, entry counts stand in for set cardinalities,
// and persisted sketches are register for register the model's (the sstable
// writer and the model hash keys identically). A baseline picks at its
// defaults whether or not its trigger holds. PickLive returns nil when fewer
// than two tables exist, and NewLiveChooser's error for any other name.
func PickLive(tables []LiveTable, strategy string, k int, seed int64) ([]int, error) {
	chooser, err := NewLiveChooser(strategy, seed)
	if err != nil {
		return nil, err
	}
	sc, err := Pick(tables, k, chooser)
	if sc == nil {
		return nil, err
	}
	picked := make([]int, len(sc.Leaves))
	for i, nd := range sc.Leaves {
		picked[i] = nd.TableID
	}
	return picked, nil
}

// NewLiveChooser constructs a fresh chooser for a name IsLiveStrategy
// accepts, a baseline at its defaults; seed feeds RANDOM. It is the one
// resolver of the engine's strategy names. Any other name, the exact-set
// strategies included, is an error wrapping kverr.ErrConfig that lists the
// accepted set.
func NewLiveChooser(name string, seed int64) (Chooser, error) {
	switch name {
	case "leveled":
		return &Leveled{}, nil
	case "size-tiered":
		return &SizeTiered{}, nil
	case "threshold":
		return &Threshold{}, nil
	}
	if !IsLiveStrategy(name) {
		return nil, fmt.Errorf("compaction: strategy %q cannot plan from table statistics (have %s): %w",
			name, strings.Join(append(Baselines(), LiveStrategies()...), ", "), kverr.ErrConfig)
	}
	return NewChooserByName(name, seed)
}

// Pick schedules the first merge Plan would run on tables: a one-merge
// schedule whose leaves are that merge's inputs, renumbered from 0 with
// TableID their index in tables, and whose root is its output, labelled as
// Plan labels it. The engine runs each minor compaction so: the chooser, the
// statistics and the first step of a full plan. Pick returns nil for fewer
// than two tables; chooser must be live-capable.
func Pick(tables []LiveTable, k int, chooser Chooser) (*Schedule, error) {
	if len(tables) < 2 {
		return nil, nil
	}
	sc, err := planLive(tables, k, chooser, 1)
	if err != nil {
		return nil, err
	}
	st := sc.Steps[0]
	for i, in := range st.Inputs {
		in.ID = i
	}
	st.Output.ID = len(st.Inputs)
	sc.Leaves = st.Inputs
	return sc, nil
}

// Plan schedules the complete merge of tables down to one, with chooser and
// fan-in k, from the statistics the tables persist — the paper's own
// implementation note (Section 5.1): a scheduler must not touch key data,
// since "computing the exact output size without merging is as expensive as
// merging". A leaf is its exact entry count and persisted sketch, a merge
// output what mergeLive estimates; the schedule's costs are therefore
// estimates, and the executed merges report the real ones. Only Run plans
// with the exact-set strategies (SO(exact), LM).
func Plan(tables []LiveTable, k int, chooser Chooser) (*Schedule, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("compaction: plan of no tables")
	}
	if !IsLiveStrategy(chooser.Name()) {
		return nil, fmt.Errorf("compaction: %s cannot plan from table statistics", chooser.Name())
	}
	return planLive(tables, k, chooser, len(tables))
}

// planLive is Algorithm 1 over statistics-only nodes, for at most steps
// merges.
func planLive(tables []LiveTable, k int, chooser Chooser, steps int) (*Schedule, error) {
	disjoint := rangesDisjoint(tables)
	return greedy(liveLeaves(tables), k, chooser, steps, func(merged *Node) { mergeLive(merged, disjoint) })
}

// liveLeaves wraps tables as statistics-only leaf nodes.
func liveLeaves(tables []LiveTable) []*Node {
	leaves := make([]*Node, len(tables))
	for i := range tables {
		leaves[i] = &Node{ID: i, Live: &tables[i], TableID: i, Level: 1}
	}
	return leaves
}

// mergeLive labels a merge output with the statistics its table will have,
// as far as they can be known without merging: summed bytes, the merged
// sketch and key range, its deepest input's level, and as its cardinality
// the sketch's estimate clamped to what any union satisfies — at least the
// largest input, at most the sum of all. The sum itself is used when
// disjoint says no two input tables of the plan share a key (every union is
// then exactly that), and when a sketch is missing or of another precision,
// which also leaves the output without one.
func mergeLive(merged *Node, disjoint bool) {
	out := &LiveTable{}
	largest := 0
	sketches := make([]*hll.Sketch, len(merged.Children))
	for i, c := range merged.Children {
		out.SizeBytes += c.Live.SizeBytes
		out.Entries += c.Live.Entries
		out.Level = max(out.Level, c.Live.Level)
		out.extend(c.Live)
		largest = max(largest, c.Live.Entries)
		sketches[i] = c.Live.Sketch
	}
	out.Sketch = hll.Union(sketches...)
	if out.Sketch != nil && !disjoint {
		out.Entries = min(max(out.Sketch.EstimateInt(), largest), out.Entries)
	}
	merged.Live = out
}

// rangesDisjoint reports whether the tables' key ranges are known and no
// two of them intersect, so that the tables cannot share a key.
func rangesDisjoint(tables []LiveTable) bool {
	byStart := make([]*LiveTable, 0, len(tables))
	for i := range tables {
		if t := &tables[i]; t.Entries > 0 {
			if t.Smallest == nil {
				return false
			}
			byStart = append(byStart, t)
		}
	}
	sort.Slice(byStart, func(i, j int) bool { return bytes.Compare(byStart[i].Smallest, byStart[j].Smallest) < 0 })
	for i := 1; i < len(byStart); i++ {
		if bytes.Compare(byStart[i-1].Largest, byStart[i].Smallest) >= 0 {
			return false
		}
	}
	return true
}

// LiveEntries estimates, for each table, how many of its keys no table of
// higher MaxSeq holds: |T \ ∪ newer|, the keys a merge of T still writes once
// the newer tables outside it shadow the rest. It walks the tables newest
// first with one running union U of their sketches and takes
// |U ∪ S| − |U|, inclusion–exclusion over HyperLogLog; the error is that of
// the two estimates, a few per cent of |U ∪ S|, and largest when T is small
// next to U. Newness is by table, not by key: tables bound their sequence
// numbers, so a newer table's copy counts as shadowing even when it came
// from an older input of a merge whose range spans T's. The estimate is
// clamped to [1, Entries] for a non-empty table. The newest table, and a
// table whose sketch is nil or of another precision than the first one
// met, keep their exact count; such a table does not join U.
func LiveEntries(tables []LiveTable) []int {
	order := make([]int, len(tables))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return tables[order[a]].MaxSeq > tables[order[b]].MaxSeq })
	live := make([]int, len(tables))
	var union *hll.Sketch
	var seen float64
	for _, i := range order {
		t := &tables[i]
		live[i] = t.Entries
		switch {
		case t.Sketch == nil:
			continue
		case union == nil:
			union = t.Sketch.Clone()
			seen = union.Estimate()
			continue
		case union.Merge(t.Sketch) != nil:
			continue
		}
		now := union.Estimate()
		if t.Entries > 0 {
			live[i] = min(max(int(now-seen+0.5), 1), t.Entries)
		}
		seen = now
	}
	return live
}
