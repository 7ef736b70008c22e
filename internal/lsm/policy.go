package lsm

import (
	"fmt"
	"slices"

	"repro/internal/compaction"
)

// This file wires minor compaction — background merges of a subset of
// sstables that keep the table count bounded between major compactions — to
// the compaction package's live choosers: the paper's strategies and the
// baselines it measures them against (Bigtable's count trigger, Cassandra's
// size tiers, the leveled layout). A pick is the first step of the plan the
// chooser would make of the tables, and it runs through the same ladder as a
// major compaction's merges (see compact). Tombstones always survive a minor
// compaction: only a major compaction's root covers all data and may purge
// them.

// TableInfo describes one live sstable: the statistics a minor pick ranks
// it by — Entries is its estimated live count, the keys no table of higher
// maxSeq holds (see liveTables) — and its file name.
type TableInfo struct {
	compaction.LiveTable
	// Name is the sstable file name.
	Name string
}

// Policy is a minor-compaction policy: a strategy the compaction package's
// table builds a fresh chooser of for every pick. After every write-triggered
// flush the engine offers it the tables no merge owns, and compaction.Due
// says at what fan-in it picks, if at all. PolicyByName builds every Policy.
type Policy struct {
	name string
	k    int
	seed int64
	// chooser, when set, replaces the table's (fixed picks, tuned levels).
	chooser func() compaction.Chooser
}

// newChooser builds the chooser of one pick.
func (p *Policy) newChooser() (compaction.Chooser, error) {
	if p.chooser != nil {
		return p.chooser(), nil
	}
	return compaction.NewLiveChooser(p.name, p.k, p.seed)
}

// fanIn is the one fan-in default of minor picks and majors: k < 2 selects 4.
func fanIn(k int) int {
	if k < 2 {
		return 4
	}
	return k
}

// PolicyByName resolves a compaction-policy name the way the engine's
// front ends (kv options, lsmserver/lsmdb flags) spell them: "none" (or
// empty) for no policy, or any name compaction.EngineStrategies lists — the
// baselines and the paper's live strategies. k, defaulted by fanIn, is the
// fan-in of threshold and of the paper's strategies, which compaction.Due
// triggers at 2k live tables, and leveled's L0 trigger; seed feeds RANDOM.
// Any other name is compaction.NewLiveChooser's error, which wraps
// kverr.ErrConfig and lists the accepted set.
func PolicyByName(name string, k int, seed int64) (*Policy, error) {
	if name == "" || name == "none" {
		return nil, nil
	}
	p := &Policy{name: name, k: fanIn(k), seed: seed}
	if _, err := p.newChooser(); err != nil {
		return nil, fmt.Errorf("lsm: compaction policy (none or a strategy): %w", err)
	}
	return p, nil
}

// TableInfos returns descriptors of the live sstables, oldest first (the
// order a minor pick sees them in), sized as a minor pick over all of them
// ranks them.
func (db *DB) TableInfos() []TableInfo {
	db.mu.RLock()
	defer db.mu.RUnlock()
	tables := oldestFirst(db.tables)
	live := liveTables(tables)
	infos := make([]TableInfo, len(tables))
	for i, th := range tables {
		infos[i] = TableInfo{LiveTable: live[i], Name: th.name}
	}
	return infos
}

// oldestFirst returns a copy of tables, which the DB keeps newest first,
// in creation order: the paper's input order, which the order-taking
// choosers (BT, CHAIN) merge from the front of. Every plan, minor or major,
// sees the tables through it.
func oldestFirst(tables []*tableHandle) []*tableHandle {
	out := slices.Clone(tables)
	slices.Reverse(out)
	return out
}

// live is the table as a compaction chooser sees it, with its exact entry
// count.
func (th *tableHandle) live() compaction.LiveTable {
	return compaction.LiveTable{
		SizeBytes: th.rd.FileSize(),
		Entries:   int(th.rd.EntryCount()),
		MaxSeq:    th.maxSeq,
		Smallest:  th.smallest,
		Largest:   th.largest,
		Sketch:    th.sketch,
		Level:     th.level,
	}
}

// liveTables returns tables as a minor pick ranks them: each one's
// statistics, with Entries its estimated live count, the keys no table of
// higher maxSeq among tables holds (compaction.LiveEntries walks them in the
// view's table order). The estimate only decides which tables merge; what a
// merge drops is still proved key by key (see shadowedBy).
func liveTables(tables []*tableHandle) []compaction.LiveTable {
	live := make([]compaction.LiveTable, len(tables))
	for i, th := range tables {
		live[i] = th.live()
	}
	for i, n := range compaction.LiveEntries(live) {
		live[i].Entries = n
	}
	return live
}

// minorCompactLocked picks under mu and claims the pick's inputs, then
// releases mu while compact runs the merge. It is called and returns with
// mu held; it does not wait for the flusher, on whose goroutine it runs.
func (db *DB) minorCompactLocked(p *Policy) (*CompactionResult, bool, error) {
	// Tables another merge owns are off limits: merging one away would
	// invalidate the set that merge is about to swap out. They still shadow
	// the others' keys, so a due pick sizes every live table. One chooser
	// answers the trigger, on exact counts, and then makes the pick.
	tables := oldestFirst(db.tables)
	var eligible []*tableHandle
	var live []compaction.LiveTable
	for _, th := range tables {
		if !th.compacting {
			eligible = append(eligible, th)
			live = append(live, th.live())
		}
	}
	chooser, err := p.newChooser()
	if err != nil {
		return nil, false, err
	}
	k := compaction.Due(live, p.k, chooser)
	if k == 0 {
		return nil, false, nil
	}
	live = live[:0]
	for i, lt := range liveTables(tables) {
		if !tables[i].compacting {
			live = append(live, lt)
		}
	}
	sched, err := compaction.Pick(live, k, chooser)
	if err != nil || sched == nil {
		return nil, false, err
	}
	v, err := db.pinView()
	if err != nil {
		return nil, false, err
	}
	ins := make([]*tableHandle, len(sched.Leaves))
	for i, leaf := range sched.Leaves {
		ins[i] = eligible[leaf.TableID]
	}
	claimLocked(ins)
	db.merging++
	db.mu.Unlock()
	res, err := db.compact(p.name, sched, ins, v, false)
	db.mu.Lock()
	db.merging--
	db.flushCond.Broadcast()
	return res, err == nil, err
}
