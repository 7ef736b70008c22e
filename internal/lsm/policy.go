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

// Policy is a minor-compaction policy: a live compaction chooser, the
// fan-in it picks under and the trigger that says when it picks at all.
// After every write-triggered flush the engine offers it the tables no
// merge owns. PolicyByName builds one for every name the engine accepts.
type Policy struct {
	name string
	// k caps a pick's fan-in; 0 leaves the group to the chooser.
	k int
	// minTables is the trigger of a chooser without one of its own (a
	// trigger): the table count at which it picks.
	minTables int
	chooser   func() compaction.Chooser
}

// trigger is a chooser's own test of whether tables warrant a merge at all,
// as the compaction package's baselines carry one.
type trigger interface {
	Due(tables []compaction.LiveTable) bool
}

// Name identifies the policy in Stats.CompactionPicks and logs.
func (p *Policy) Name() string { return p.name }

// due reports whether p's trigger holds over tables. No trigger reads
// Entries, so the answer is the same before and after liveTables sizes them.
func (p *Policy) due(tables []compaction.LiveTable) bool {
	if tr, ok := p.chooser().(trigger); ok {
		return tr.Due(tables)
	}
	return len(tables) >= p.minTables
}

// pick returns the one-merge schedule p makes of tables, or nil when its
// trigger does not hold.
func (p *Policy) pick(tables []compaction.LiveTable) (*compaction.Schedule, error) {
	if !p.due(tables) {
		return nil, nil
	}
	k := p.k
	if k == 0 {
		k = len(tables)
	}
	return compaction.Pick(tables, k, p.chooser())
}

// PolicyByName resolves a compaction-policy name the way the engine's
// front ends (kv options, lsmserver/lsmdb flags) spell them: "none" (or
// empty) for no policy, the baselines "threshold", "size-tiered" and
// "leveled", or any live-capable strategy name from the paper registry (SI,
// SO, BT, BT(I), BT(O), CHAIN, RANDOM). k is the fan-in of threshold and of
// the paper's strategies, which trigger at 2k live tables, and leveled's L0
// trigger; size-tiered merges up to 32 tables at once (Cassandra's
// max_threshold) and leveled whatever its overlap closure holds. k below 2
// selects 4; seed feeds RANDOM. Any other name is compaction.NewLiveChooser's
// error, which wraps kverr.ErrConfig and lists the accepted set.
func PolicyByName(name string, k int, seed int64) (*Policy, error) {
	if k < 2 {
		k = 4
	}
	switch name {
	case "", "none":
		return nil, nil
	case "threshold":
		return &Policy{name: name, k: k, chooser: func() compaction.Chooser { return &compaction.Threshold{} }}, nil
	case "size-tiered":
		return &Policy{name: name, k: 32, chooser: func() compaction.Chooser { return &compaction.SizeTiered{} }}, nil
	case "leveled":
		return &Policy{name: name, chooser: func() compaction.Chooser { return &compaction.Leveled{L0Trigger: k} }}, nil
	}
	if _, err := compaction.NewLiveChooser(name, seed); err != nil {
		return nil, fmt.Errorf("lsm: compaction policy (none or a strategy): %w", err)
	}
	// Trigger at 2k live tables and merge k of them: the gap between trigger
	// and fan-in is what gives the strategy a real choice — at exactly k
	// tables every strategy would pick the same set.
	return &Policy{name: name, k: k, minTables: 2 * k, chooser: func() compaction.Chooser {
		ch, _ := compaction.NewLiveChooser(name, seed) // resolved above: never fails
		return ch
	}}, nil
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
// view's byseq order). The estimate only decides which tables merge; what a
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

// minorCompact asks p for a merge of the tables no other merge owns and, if
// it makes one, runs it (keeping tombstones). It reports whether a
// compaction ran.
func (db *DB) minorCompact(p *Policy) (*CompactionResult, bool, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, false, ErrClosed
	}
	return db.minorCompactLocked(p)
}

// minorCompactLocked picks under mu and claims the pick's inputs, then
// releases mu while compact runs the merge. It is called and returns with
// mu held; it does not wait for the flusher, on whose goroutine it runs.
func (db *DB) minorCompactLocked(p *Policy) (*CompactionResult, bool, error) {
	// Tables another merge owns are off limits: merging one away would
	// invalidate the set that merge is about to swap out. They still shadow
	// the others' keys, so a due pick sizes every live table.
	tables := oldestFirst(db.tables)
	var eligible []*tableHandle
	var live []compaction.LiveTable
	for _, th := range tables {
		if !th.compacting {
			eligible = append(eligible, th)
			live = append(live, th.live())
		}
	}
	if !p.due(live) {
		return nil, false, nil
	}
	live = live[:0]
	for i, lt := range liveTables(tables) {
		if !tables[i].compacting {
			live = append(live, lt)
		}
	}
	sched, err := p.pick(live)
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
