package compaction

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/hll"
	"repro/internal/keyset"
)

// LiveTable describes one live sstable the way the engine's compaction
// picker sees it: no key data, only the statistics the write path persists
// — exact entry count (sstable keys are unique, so the count is the
// cardinality), byte size, key bounds from the bounds block, and the
// per-table HyperLogLog key sketch for overlap estimation. Sketch may be
// nil on tables written before sketches were persisted; strategies that
// rank by union size then degrade to a disjointness assumption for the
// affected pairs.
type LiveTable struct {
	// SizeBytes is the table's file size.
	SizeBytes uint64
	// Entries is the table's exact key count.
	Entries int
	// Smallest and Largest bound the table's key range (both inclusive).
	Smallest, Largest []byte
	// Sketch estimates the table's key set; nil when not persisted.
	Sketch *hll.Sketch
}

// ErrNeedsKeys reports a strategy that cannot pick from live statistics
// because it ranks by exact set operations (SO(exact), LM).
type ErrNeedsKeys struct{ Strategy string }

func (e ErrNeedsKeys) Error() string {
	return fmt.Sprintf("compaction: strategy %q needs exact key sets and cannot pick from live table stats", e.Strategy)
}

// LiveStrategies returns the strategy names PickLive accepts, sorted: the
// registry minus the two exact-set strategies.
func LiveStrategies() []string {
	var names []string
	for _, name := range StrategyNames() {
		if IsLiveStrategy(name) {
			names = append(names, name)
		}
	}
	return names
}

// IsLiveStrategy reports whether name is a registry strategy Plan and
// PickLive can drive from live table statistics.
func IsLiveStrategy(name string) bool {
	switch name {
	case "SI", "SO", "BT", "BT(I)", "BT(O)", "CHAIN", "RANDOM":
		return true
	default:
		return false
	}
}

// PickLive selects the next group of tables to merge using a registry
// strategy, driven by live per-table statistics instead of key sets: the
// first CHOOSETWOSETS call of the schedule Plan would produce, made by the
// same Chooser the model runs — leaf IDs are the slice indices, entry counts
// stand in for set cardinalities, and persisted sketches are register for
// register the model's (the sstable writer and the model hash keys
// identically). It returns the selected indices, nil when fewer than two
// tables exist, and ErrNeedsKeys for the exact-set strategies.
func PickLive(tables []LiveTable, strategy string, k int, seed int64) ([]int, error) {
	if k < 2 {
		return nil, fmt.Errorf("compaction: k = %d, need k >= 2", k)
	}
	if len(tables) < 2 {
		return nil, nil
	}
	chooser, err := NewChooserByName(strategy, seed)
	if err != nil {
		return nil, err
	}
	if !IsLiveStrategy(strategy) {
		return nil, ErrNeedsKeys{Strategy: strategy}
	}
	if err := chooser.Init(liveLeaves(tables), k); err != nil {
		return nil, err
	}
	group, err := chooser.Choose()
	if err != nil {
		return nil, fmt.Errorf("compaction: %s: %w", strategy, err)
	}
	picked := make([]int, len(group))
	for i, nd := range group {
		picked[i] = nd.ID
	}
	return picked, nil
}

// Plan schedules the complete merge of tables down to one, with chooser and
// fan-in k, from the statistics the tables persist — the paper's own
// implementation note (Section 5.1): a scheduler must not touch key data,
// since "computing the exact output size without merging is as expensive as
// merging". A leaf is its exact entry count and persisted sketch, a merge
// output what mergeLive estimates; the schedule's costs are therefore
// estimates, and the executed merges report the real ones.
//
// Only SO(exact) and LM rank by exact set operations and cannot plan this
// way. For them alone Plan calls keys once per table for the table's hashed
// keys (keyhash H1, the model's key universe) and runs the exact model.
func Plan(tables []LiveTable, k int, chooser Chooser, keys func(table int) ([]uint64, error)) (*Schedule, error) {
	if len(tables) == 0 {
		return nil, fmt.Errorf("compaction: plan of no tables")
	}
	if IsLiveStrategy(chooser.Name()) {
		disjoint := rangesDisjoint(tables)
		return greedy(liveLeaves(tables), k, chooser, func(merged *Node) { mergeLive(merged, disjoint) })
	}
	sets := make([]keyset.Set, len(tables))
	for i := range tables {
		hashes, err := keys(i)
		if err != nil {
			return nil, err
		}
		sets[i] = keyset.New(hashes...)
	}
	return Run(NewInstance(sets...), k, chooser)
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
// sketch, and as its cardinality the sketch's estimate clamped to what any
// union satisfies — at least the largest input, at most the sum of all. The
// sum itself is used when disjoint says no two input tables of the plan
// share a key (every union is then exactly that), and when a sketch is
// missing or of another precision, which also leaves the output without one.
// Key bounds are not carried: nothing ranks by a merge output's range.
func mergeLive(merged *Node, disjoint bool) {
	out := &LiveTable{}
	largest := 0
	sketches := make([]*hll.Sketch, len(merged.Children))
	for i, c := range merged.Children {
		out.SizeBytes += c.Live.SizeBytes
		out.Entries += c.Live.Entries
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
