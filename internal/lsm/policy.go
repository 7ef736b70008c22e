package lsm

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/compaction"
	"repro/internal/hll"
	"repro/internal/sstable"
)

// This file implements *minor* compaction: background merges of a subset
// of sstables that keep the table count bounded between major compactions.
// The paper's related-work section sketches both classic policies
// implemented here — Bigtable's count-threshold trigger and Cassandra's
// Size-Tiered strategy, which "merges sstables of equal size" and which
// the paper notes "bears resemblance to our SMALLESTINPUT heuristic".
// Tombstones always survive minor compactions: only a major compaction
// covers all data and may purge them.

// TableInfo describes one live sstable to a compaction policy.
type TableInfo struct {
	// Name is the sstable file name.
	Name string
	// SizeBytes is the encoded file size.
	SizeBytes uint64
	// Entries is the number of stored entries.
	Entries uint64
	// Smallest and Largest bound the table's key range (both inclusive);
	// nil for an empty table.
	Smallest, Largest []byte
	// Sketch is the table's HyperLogLog key sketch, persisted at write
	// time. Policies must treat it as read-only (Clone before merging).
	Sketch *hll.Sketch
	// Level is the table's position in a leveled layout; 0 for fresh
	// flushes and for flat (size-tiered/threshold) layouts.
	Level int
}

// live is the table as the compaction package's planner sees it.
func (t TableInfo) live() compaction.LiveTable {
	return compaction.LiveTable{
		SizeBytes: t.SizeBytes,
		Entries:   int(t.Entries),
		Smallest:  t.Smallest,
		Largest:   t.Largest,
		Sketch:    t.Sketch,
	}
}

// CompactionPolicy decides which tables a minor compaction should merge.
type CompactionPolicy interface {
	// Name identifies the policy in results and logs.
	Name() string
	// Pick returns the indices (into tables) to merge, or nil if no
	// compaction is warranted. Returned groups must have length ≥ 2.
	Pick(tables []TableInfo) []int
}

// ThresholdPolicy is the Bigtable-style trigger: once the number of
// sstables reaches MaxTables, merge the Fanin smallest ones.
type ThresholdPolicy struct {
	// MaxTables triggers compaction when the live table count reaches it.
	// Zero selects 8.
	MaxTables int
	// Fanin is how many tables to merge per compaction. Zero selects 4.
	Fanin int
}

// Name implements CompactionPolicy.
func (p ThresholdPolicy) Name() string { return "threshold" }

// Pick implements CompactionPolicy.
func (p ThresholdPolicy) Pick(tables []TableInfo) []int {
	maxTables, fanin := p.MaxTables, p.Fanin
	if maxTables <= 0 {
		maxTables = 8
	}
	if fanin <= 1 {
		fanin = 4
	}
	if len(tables) < maxTables {
		return nil
	}
	idx := make([]int, len(tables))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return tables[idx[a]].SizeBytes < tables[idx[b]].SizeBytes })
	if fanin > len(idx) {
		fanin = len(idx)
	}
	return idx[:fanin]
}

// SizeTieredPolicy is Cassandra's STCS: tables are grouped into buckets of
// similar size (within [BucketLow·avg, BucketHigh·avg]); the fullest
// bucket with at least MinThreshold tables is compacted (up to
// MaxThreshold tables at once).
type SizeTieredPolicy struct {
	// MinThreshold is the minimum bucket size that triggers compaction.
	// Zero selects Cassandra's default of 4.
	MinThreshold int
	// MaxThreshold caps the tables merged at once. Zero selects 32.
	MaxThreshold int
	// BucketLow/BucketHigh bound a bucket relative to its average size.
	// Zeros select Cassandra's 0.5 and 1.5.
	BucketLow, BucketHigh float64
}

// Name implements CompactionPolicy.
func (p SizeTieredPolicy) Name() string { return "size-tiered" }

// Pick implements CompactionPolicy.
func (p SizeTieredPolicy) Pick(tables []TableInfo) []int {
	minT, maxT := p.MinThreshold, p.MaxThreshold
	if minT <= 1 {
		minT = 4
	}
	if maxT <= 0 {
		maxT = 32
	}
	low, high := p.BucketLow, p.BucketHigh
	if low <= 0 {
		low = 0.5
	}
	if high <= 0 {
		high = 1.5
	}

	idx := make([]int, len(tables))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return tables[idx[a]].SizeBytes < tables[idx[b]].SizeBytes })

	var (
		bestBucket []int
		bucket     []int
		bucketAvg  float64
	)
	flush := func() {
		if len(bucket) >= minT && len(bucket) > len(bestBucket) {
			bestBucket = append([]int(nil), bucket...)
		}
	}
	for _, i := range idx {
		size := float64(tables[i].SizeBytes)
		if len(bucket) == 0 || (size >= low*bucketAvg && size <= high*bucketAvg) {
			bucket = append(bucket, i)
			// Running average keeps the bucket's center tracking its
			// members.
			bucketAvg += (size - bucketAvg) / float64(len(bucket))
			continue
		}
		flush()
		bucket = []int{i}
		bucketAvg = size
	}
	flush()
	if len(bestBucket) > maxT {
		bestBucket = bestBucket[:maxT]
	}
	if len(bestBucket) < 2 {
		return nil
	}
	return bestBucket
}

// StrategyPolicy drives minor compaction with any live-capable strategy
// from the paper's registry (SI, SO, BT, BT(I), BT(O), CHAIN, RANDOM): the
// pick the strategy's first CHOOSETWOSETS call would make on the
// equivalent abstract instance, computed from live table statistics —
// entry counts for cardinalities and persisted HyperLogLog sketches for
// overlap (see compaction.PickLive).
type StrategyPolicy struct {
	// Strategy is the registry name, e.g. "SI" or "BT(I)".
	Strategy string
	// K is the merge fan-in. Values below 2 select 4.
	K int
	// MinTables is the live table count that triggers a pick; below it the
	// policy reports nothing to do. Values below 2 select 4.
	MinTables int
	// Seed feeds randomized strategies.
	Seed int64
}

// Name implements CompactionPolicy.
func (p StrategyPolicy) Name() string { return p.Strategy }

// Pick implements CompactionPolicy.
func (p StrategyPolicy) Pick(tables []TableInfo) []int {
	minT, k := p.MinTables, p.K
	if minT < 2 {
		minT = 4
	}
	if k < 2 {
		k = 4
	}
	if len(tables) < minT {
		return nil
	}
	live := make([]compaction.LiveTable, len(tables))
	for i, t := range tables {
		live[i] = t.live()
	}
	picked, err := compaction.PickLive(live, p.Strategy, k, p.Seed)
	if err != nil || len(picked) < 2 {
		return nil
	}
	return picked
}

// OutputLeveler is an optional CompactionPolicy extension: a policy that
// maintains a leveled layout implements it to assign the level of the
// merged output. minorCompactLocked consults it after a successful Pick;
// outputs of policies without it stay at level 0 (the flat layout).
type OutputLeveler interface {
	OutputLevel(tables []TableInfo, picked []int) int
}

// LeveledPolicy arranges sstables into levels, the LevelDB-style
// alternative to the flat size-tiered layout. Level 0 holds fresh flushes
// and may overlap arbitrarily; every level >= 1 keeps its tables
// non-overlapping by key range. Once level 0 accumulates L0Trigger tables
// they merge (together with every overlapping level-1 table) down to
// level 1; once a level's total size exceeds its target — BaseTargetBytes
// at level 1, multiplied by Multiplier per level below — its largest
// table merges with the overlapping tables one level down. Merging into
// the overlap keeps each level sorted-run-disjoint, so point reads probe
// at most one table per level >= 1; the price is rewriting overlapping
// runs, which pays off under read-heavy or update-heavy (overlapping)
// workloads.
type LeveledPolicy struct {
	// L0Trigger is the level-0 table count that triggers an L0→L1 merge.
	// Zero selects 4.
	L0Trigger int
	// BaseTargetBytes is level 1's size target. Zero selects 8 MiB.
	BaseTargetBytes uint64
	// Multiplier grows the target per level. Zero selects 10.
	Multiplier int
}

// Name implements CompactionPolicy.
func (p LeveledPolicy) Name() string { return "leveled" }

func (p LeveledPolicy) withDefaults() LeveledPolicy {
	if p.L0Trigger <= 1 {
		p.L0Trigger = 4
	}
	if p.BaseTargetBytes == 0 {
		p.BaseTargetBytes = 8 << 20
	}
	if p.Multiplier <= 1 {
		p.Multiplier = 10
	}
	return p
}

// targetBytes is the size target of level (>= 1): BaseTargetBytes at
// level 1, multiplied by Multiplier per level below.
func (p LeveledPolicy) targetBytes(level int) uint64 {
	t := p.BaseTargetBytes
	for l := 1; l < level; l++ {
		t *= uint64(p.Multiplier)
	}
	return t
}

// rangesOverlap reports whether two inclusive key ranges intersect. A
// table without bounds (empty) overlaps nothing.
func rangesOverlap(aSmall, aLarge, bSmall, bLarge []byte) bool {
	if aSmall == nil || bSmall == nil {
		return false
	}
	return bytes.Compare(aSmall, bLarge) <= 0 && bytes.Compare(bSmall, aLarge) <= 0
}

// closeOverlap grows group (indices into tables) with every table in
// candidates whose key range overlaps the group's combined span, to a
// fixpoint: adding a table extends the span, which can pull in more. This
// is what keeps merge outputs disjoint from the tables left behind at the
// output level.
func closeOverlap(tables []TableInfo, group []int, candidates []int) []int {
	in := make(map[int]bool, len(group))
	var small, large []byte
	for _, i := range group {
		in[i] = true
		small, large = extendSpan(small, large, tables[i])
	}
	for grew := true; grew; {
		grew = false
		for _, c := range candidates {
			if in[c] {
				continue
			}
			if rangesOverlap(small, large, tables[c].Smallest, tables[c].Largest) {
				in[c] = true
				group = append(group, c)
				small, large = extendSpan(small, large, tables[c])
				grew = true
			}
		}
	}
	return group
}

func extendSpan(small, large []byte, t TableInfo) ([]byte, []byte) {
	if t.Smallest == nil {
		return small, large
	}
	if small == nil || bytes.Compare(t.Smallest, small) < 0 {
		small = t.Smallest
	}
	if large == nil || bytes.Compare(t.Largest, large) > 0 {
		large = t.Largest
	}
	return small, large
}

// Pick implements CompactionPolicy. It returns either an L0→L1 merge
// (all level-0 tables plus the level-1 tables their span covers) or an
// overflow merge (the largest table of a level over its size target plus
// the tables it covers one level down).
func (p LeveledPolicy) Pick(tables []TableInfo) []int {
	p = p.withDefaults()
	byLevel := make(map[int][]int)
	maxLevel := 0
	for i, t := range tables {
		byLevel[t.Level] = append(byLevel[t.Level], i)
		if t.Level > maxLevel {
			maxLevel = t.Level
		}
	}
	if len(byLevel[0]) >= p.L0Trigger {
		group := closeOverlap(tables, byLevel[0], byLevel[1])
		if len(group) >= 2 {
			return group
		}
	}
	for level := 1; level <= maxLevel; level++ {
		var total uint64
		for _, i := range byLevel[level] {
			total += tables[i].SizeBytes
		}
		if total <= p.targetBytes(level) {
			continue
		}
		// Push the level's largest table down, pulling in everything it
		// covers at level+1.
		seedIdx := byLevel[level][0]
		for _, i := range byLevel[level] {
			if tables[i].SizeBytes > tables[seedIdx].SizeBytes {
				seedIdx = i
			}
		}
		group := closeOverlap(tables, []int{seedIdx}, byLevel[level+1])
		if len(group) < 2 {
			// Nothing overlaps below: merge with a same-level sibling so
			// the pick stays a real merge. The pair's combined span may
			// cover further level+1 tables, so close over them too.
			best := -1
			for _, i := range byLevel[level] {
				if i == seedIdx {
					continue
				}
				if best < 0 || tables[i].SizeBytes < tables[best].SizeBytes {
					best = i
				}
			}
			if best < 0 {
				continue // a single oversized table alone at its level
			}
			group = closeOverlap(tables, []int{seedIdx, best}, byLevel[level+1])
		}
		return group
	}
	return nil
}

// OutputLevel implements OutputLeveler: a pick spanning two levels lands
// at the deeper one; a single-level pick moves down one level.
func (p LeveledPolicy) OutputLevel(tables []TableInfo, picked []int) int {
	if len(picked) == 0 {
		return 0
	}
	minL, maxL := tables[picked[0]].Level, tables[picked[0]].Level
	for _, i := range picked[1:] {
		if l := tables[i].Level; l < minL {
			minL = l
		} else if l > maxL {
			maxL = l
		}
	}
	if minL == maxL {
		return maxL + 1
	}
	return maxL
}

// PolicyByName resolves a compaction-policy name the way the engine's
// front ends (kv options, lsmserver/lsmdb flags) spell them: "none" (or
// empty) for no policy, the classic "size-tiered" and "threshold"
// policies, "leveled" for the leveled layout, or any live-capable
// strategy name from the paper registry (SI, SO, BT, BT(I), BT(O), CHAIN,
// RANDOM) for a StrategyPolicy with fan-in k and the given seed. Unknown
// names are an error listing the accepted set.
func PolicyByName(name string, k int, seed int64) (CompactionPolicy, error) {
	switch name {
	case "", "none":
		return nil, nil
	case "size-tiered":
		return SizeTieredPolicy{}, nil
	case "threshold":
		return ThresholdPolicy{}, nil
	case "leveled":
		// k doubles as the L0 trigger: an L0→L1 merge reads ~k tables,
		// so the fan-in knob means the same thing it does elsewhere.
		return LeveledPolicy{L0Trigger: k}, nil
	}
	if compaction.IsLiveStrategy(name) {
		// Trigger at 2k live tables and merge k of them: the gap between
		// trigger and fan-in is what gives the strategy a real choice —
		// at exactly k tables every strategy would pick the same set.
		minTables := 2 * k
		if k < 2 {
			minTables = 8
		}
		return StrategyPolicy{Strategy: name, K: k, MinTables: minTables, Seed: seed}, nil
	}
	return nil, fmt.Errorf("lsm: unknown compaction policy %q (have none, size-tiered, threshold, leveled, %s)",
		name, strings.Join(compaction.LiveStrategies(), ", "))
}

// BackgroundConfig configures the background major-compaction trigger and
// its write backpressure. The zero value of every field selects a default,
// so &BackgroundConfig{} enables background compaction with sane settings.
type BackgroundConfig struct {
	// Trigger is the live table count that starts a background major
	// compaction. Zero selects 8.
	Trigger int
	// Stall is the live table count at which writers block until the
	// compactor catches up — the backpressure valve that keeps a write
	// burst from outrunning compaction indefinitely. Zero selects
	// 4×Trigger; values at or below Trigger are raised to Trigger+1.
	Stall int
	// Strategy names the merge-scheduling strategy (see the compaction
	// package). Empty selects "BT(I)", the paper's parallel-friendly
	// BALANCETREE ordered by smallest input.
	Strategy string
	// K is the maximum merge fan-in. Zero selects 4.
	K int
	// Seed feeds randomized strategies.
	Seed int64
}

func (c BackgroundConfig) withDefaults() BackgroundConfig {
	if c.Trigger <= 1 {
		c.Trigger = 8
	}
	if c.Stall <= 0 {
		c.Stall = 4 * c.Trigger
	}
	if c.Stall <= c.Trigger {
		c.Stall = c.Trigger + 1
	}
	if c.Strategy == "" {
		c.Strategy = "BT(I)"
	}
	if c.K < 2 {
		c.K = 4
	}
	return c
}

// MinorCompactionResult reports one minor compaction.
type MinorCompactionResult struct {
	// Policy is the policy that picked the tables.
	Policy string
	// Merged is how many tables were merged.
	Merged int
	// Stats is the disk I/O of the merge.
	Stats sstable.MergeStats
	// Duration is the wall time of the merge.
	Duration time.Duration
}

// TableInfos returns descriptors of the live sstables, newest first.
func (db *DB) TableInfos() []TableInfo {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tableInfosLocked()
}

func (db *DB) tableInfosLocked() []TableInfo {
	infos := make([]TableInfo, len(db.tables))
	for i, th := range db.tables {
		infos[i] = th.info()
	}
	return infos
}

// info builds the policy-facing descriptor of a live table.
func (th *tableHandle) info() TableInfo {
	return TableInfo{
		Name:      th.name,
		SizeBytes: th.rd.FileSize(),
		Entries:   th.rd.EntryCount(),
		Smallest:  th.smallest,
		Largest:   th.largest,
		Sketch:    th.sketch,
		Level:     th.level,
	}
}

// MinorCompact asks policy for a group of tables and, if it returns one,
// merges them into a single table (keeping tombstones). It reports whether
// a compaction ran. The store lock is held to pick and to swap, not while
// the merge runs.
func (db *DB) MinorCompact(policy CompactionPolicy) (*MinorCompactionResult, bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, false, ErrClosed
	}
	return db.minorCompactLocked(policy)
}

// minorCompactLocked runs one minor compaction in the shape of a major one:
// pick under mu and mark the inputs compacting, merge with mu released, swap
// under mu. It is called and returns with mu held.
func (db *DB) minorCompactLocked(policy CompactionPolicy) (*MinorCompactionResult, bool, error) {
	// Tables another merge owns are off limits: merging one away would
	// invalidate the set that merge is about to swap out. The policy only
	// sees the eligible tables; its picks are mapped back to handles.
	eligible := make([]*tableHandle, 0, len(db.tables))
	infos := make([]TableInfo, 0, len(db.tables))
	for _, th := range db.tables {
		if th.compacting {
			continue
		}
		eligible = append(eligible, th)
		infos = append(infos, th.info())
	}
	picked := policy.Pick(infos)
	if len(picked) < 2 {
		return nil, false, nil
	}
	// Leveled policies assign the merged output's level; flat policies
	// leave outputs at level 0.
	outLevel := 0
	if lv, ok := policy.(OutputLeveler); ok {
		outLevel = lv.OutputLevel(infos, picked)
	}
	merged := make(map[*tableHandle]bool, len(picked))
	ins := make([]*tableHandle, 0, len(picked))
	inputs := make([]*sstable.Reader, 0, len(picked))
	for _, e := range picked {
		if e < 0 || e >= len(eligible) {
			return nil, false, fmt.Errorf("lsm: policy %s picked invalid index %d", policy.Name(), e)
		}
		th := eligible[e]
		if merged[th] {
			return nil, false, fmt.Errorf("lsm: policy %s picked index %d twice", policy.Name(), e)
		}
		merged[th] = true
		ins = append(ins, th)
		inputs = append(inputs, th.rd)
	}
	// Until the swap the inputs stay in the live set, marked so that no
	// other pick, major snapshot or quarantine takes them, and retained so
	// that a Close during the merge does not close their readers.
	for _, th := range ins {
		th.compacting = true
		th.retain()
	}
	defer releaseTables(ins)
	db.merging++
	name := db.allocTableNameLocked()
	db.mu.Unlock()

	start := time.Now()
	rd, stats, err := db.mergeTables(name, false, inputs)

	db.mu.Lock()
	db.merging--
	db.flushCond.Broadcast()
	for _, th := range ins {
		th.compacting = false
	}
	if err == nil && db.closed {
		rd.Close()
		db.removeFile(name)
		err = ErrClosed
	}
	if err != nil {
		return nil, false, err
	}

	// Replace the merged tables: the new table takes the position of the
	// newest input; the rest disappear.
	kept := make([]*tableHandle, 0, len(db.tables)-len(merged)+1)
	placed := false
	for _, th := range db.tables {
		switch {
		case !merged[th]:
			kept = append(kept, th)
		case !placed:
			out := db.newTableHandle(name, rd, db.generation+1)
			out.level = outLevel
			kept = append(kept, out)
			placed = true
		}
	}
	oldManTables := db.man.tables
	db.man.tables = make([]string, len(kept))
	for i, th := range kept {
		db.man.tables[i] = th.name
	}
	db.man.recordLevels(kept)
	if err := db.man.save(db.fs, db.dir); err != nil {
		db.man.tables = oldManTables
		db.failDurabilityLocked(err)
		rd.Close()
		db.removeFile(name)
		return nil, false, err
	}
	db.tables = kept
	db.installViewLocked()
	db.generation++
	db.bytesCompacted += stats.BytesWritten
	db.recordPickLocked(policy.Name())
	// The table count just dropped: writers stalled on backpressure may be
	// able to proceed without waiting for the major compactor.
	db.stallCond.Broadcast()
	// Retired inputs may still be referenced by concurrent scans; the last
	// reference closes the reader and deletes the file.
	for _, th := range ins {
		th.obsolete.Store(true)
		th.release()
	}
	return &MinorCompactionResult{
		Policy:   policy.Name(),
		Merged:   len(picked),
		Stats:    stats,
		Duration: time.Since(start),
	}, true, nil
}
