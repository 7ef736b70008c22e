package lsm

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/compaction"
	"repro/internal/iterator"
	"repro/internal/keyhash"
	"repro/internal/sstable"
	"repro/internal/vfs"
)

// CompactionState is the phase of the major-compaction state machine. It
// moves idle → planning → merging → swapping → idle; only the planning and
// swapping phases hold the store lock, and both are short.
type CompactionState int32

const (
	// CompactionIdle: no major compaction in flight.
	CompactionIdle CompactionState = iota
	// CompactionPlanning: snapshotting the table set and computing the
	// merge schedule (brief critical section for the snapshot).
	CompactionPlanning
	// CompactionMerging: executing the schedule's merges off-lock on the
	// worker pool; reads and writes proceed concurrently.
	CompactionMerging
	// CompactionSwapping: committing the merged result to the manifest and
	// table set (brief critical section).
	CompactionSwapping
)

// String returns the lower-case phase name.
func (s CompactionState) String() string {
	switch s {
	case CompactionIdle:
		return "idle"
	case CompactionPlanning:
		return "planning"
	case CompactionMerging:
		return "merging"
	case CompactionSwapping:
		return "swapping"
	}
	return fmt.Sprintf("CompactionState(%d)", int32(s))
}

// CompactionState returns the current phase of the major-compaction state
// machine. It is safe to call from any goroutine without blocking.
func (db *DB) CompactionState() CompactionState {
	return CompactionState(db.state.Load())
}

func (db *DB) setState(s CompactionState) { db.state.Store(int32(s)) }

// CompactionResult reports what a compaction did: the paper's costs in
// keys, counted from the merges that ran, and the real bytes moved on disk.
type CompactionResult struct {
	// Strategy is the chooser or policy that scheduled the merges.
	Strategy string
	// TablesBefore is the number of sstables merged: a major compaction's
	// snapshot, a minor pick's inputs.
	TablesBefore int
	// TablesAfter is the number of live sstables immediately after the
	// swap; above one for a major compaction that overlapped flushes.
	TablesAfter int
	// StepStats holds per-merge disk I/O, indexed by schedule step.
	StepStats []sstable.MergeStats
	// BytesRead and BytesWritten total the disk I/O: the concrete
	// realization of costactual.
	BytesRead, BytesWritten uint64
	// CostSimple and CostActual are the paper's costs of the executed
	// schedule in keys (equation 2.1 and Section 2), measured rather than
	// modelled: CostActual sums every merge's entries read and written,
	// CostSimple counts every input table and every merge output once.
	CostSimple, CostActual int
	// VersionsPurged counts the versions the merges dropped because a
	// table outside the compaction held a newer one (see shadowedBy).
	VersionsPurged uint64
	// Duration is the wall-clock time of a major compaction's planning plus
	// merging.
	Duration time.Duration
}

// TotalIO returns BytesRead + BytesWritten.
func (r *CompactionResult) TotalIO() uint64 { return r.BytesRead + r.BytesWritten }

// Add sums o into r, as the results of compactions that ran side by side
// (one per shard or node): counts and bytes add, StepStats concatenates, and
// Duration is the slowest one's. Strategy stays r's.
func (r *CompactionResult) Add(o *CompactionResult) {
	r.TablesBefore += o.TablesBefore
	r.TablesAfter += o.TablesAfter
	r.StepStats = append(r.StepStats, o.StepStats...)
	r.BytesRead += o.BytesRead
	r.BytesWritten += o.BytesWritten
	r.CostSimple += o.CostSimple
	r.CostActual += o.CostActual
	r.VersionsPurged += o.VersionsPurged
	r.Duration = max(r.Duration, o.Duration)
}

// MajorCompact merges all live sstables (after flushing the memtable) into
// a single table, scheduling the pairwise/k-way merges with the named
// strategy from the compaction package ("SI", "SO", "BT(I)", ...): any name
// compaction.NewLiveChooser accepts. Any other name fails with
// kverr.ErrConfig before the compaction touches a table.
//
// The compaction is non-blocking: the live table set is snapshotted and
// the memtable flushed (by the flusher, while the caller waits) in a short
// critical section, the schedule is planned and its merges execute
// off-lock on the compaction package's worker pool (so a BALANCETREE
// schedule's independent merges run in parallel, Section 5.1 of the
// paper), and the merged root is swapped into the manifest atomically in a
// second short critical section (see compact). Reads, writes, flushes and
// minor compactions proceed concurrently throughout; tables that flush
// during the merge survive the swap, so the store holds those tables plus
// the merged root afterwards. Concurrent MajorCompact calls serialize.
//
// Crash safety: the manifest is only rewritten at the swap. A crash before
// the swap leaves the old manifest pointing at the old tables; the merge
// outputs become orphans that Open deletes on recovery.
func (db *DB) MajorCompact(strategy string, k int, seed int64) (*CompactionResult, error) {
	chooser, err := compaction.NewLiveChooser(strategy, seed)
	if err != nil {
		return nil, fmt.Errorf("lsm: major compaction: %w", err)
	}
	db.majorMu.Lock()
	defer db.majorMu.Unlock()
	defer db.setState(CompactionIdle)
	start := time.Now()

	// Planning: with the flusher idle and no minor merge in flight, flush
	// the memtable and snapshot the table set under the locks (pipeMu
	// before mu, the global order: the flush swaps the WAL segment), then
	// plan off-lock.
	if err := db.lockQuiesced(); err != nil {
		return nil, err
	}
	err = db.readOnlyErrLocked()
	if err == nil {
		db.setState(CompactionPlanning)
		err = db.flushMemLocked()
	}
	snap := oldestFirst(db.tables)
	if err == nil && len(snap) > 1 {
		claimLocked(snap)
	}
	db.mu.Unlock()
	db.pipeMu.Unlock()
	if err != nil {
		return nil, err
	}
	if len(snap) <= 1 {
		return &CompactionResult{Strategy: strategy, TablesBefore: len(snap), TablesAfter: len(snap), Duration: time.Since(start)}, nil
	}
	sched, err := planMajor(snap, k, chooser)
	if err != nil {
		db.unclaim(snap)
		return nil, err
	}
	res, err := db.compact(strategy, sched, snap, nil, true)
	if err != nil {
		return nil, err
	}
	res.Duration = time.Since(start)
	return res, nil
}

// claimLocked marks ins as a merge's inputs: until its swap they stay in the
// live set, but no other pick, major snapshot or quarantine takes them, and
// a Close during the merge does not close their readers. Callers hold mu.
func claimLocked(ins []*tableHandle) {
	for _, th := range ins {
		th.compacting = true
		th.retain()
	}
}

// shadowedBy is the purge test of a merge of ins that pinned the view v when
// it claimed them. Its outside set is every other table of v, claimed by
// another merge or not, tried in v's byseq order (newest maxSeq first) and
// kept open by the pin until the merge ends; the inputs are left out, since
// none holds a version newer than the merge's own newest. A version goes
// when an outside table provably holds a newer version of its key
// (sstable.Reader.HoldsNewer, which answers from the table whatever the
// cache holds), and each one that goes counts in purged. The newest version
// of a key is never dropped, so what a read of the live set returns is
// unchanged. The memtable is no proof — with SyncWAL off its versions are not
// durable — and snapshots and iterators pin the tables they read. No view
// (a major compaction's, which claims every table) or no outside table
// gives nil: nothing to test.
func shadowedBy(v *readView, ins []*tableHandle, purged *atomic.Uint64) func(iterator.Entry) bool {
	if v == nil || len(v.byseq) == len(ins) {
		return nil
	}
	return func(e iterator.Entry) bool {
		if v.byseq[0].maxSeq <= e.Seq {
			return false
		}
		h := keyhash.Of(e.Key)
		for _, th := range v.byseq {
			if th.maxSeq <= e.Seq {
				return false
			}
			if !slices.Contains(ins, th) && th.rd.HoldsNewer(e.Key, h, e.Seq) {
				purged.Add(1)
				return true
			}
		}
		return false
	}
}

// unclaim gives back the inputs of a merge that did not install, live
// again: the blocks the merge spent are no longer first to go.
func (db *DB) unclaim(ins []*tableHandle) {
	db.mu.Lock()
	for _, th := range ins {
		th.compacting = false
		th.rd.Unspend()
	}
	db.mu.Unlock()
	releaseTables(ins)
}

// compact is the ladder every compaction climbs, minor and major alike.
// With its inputs ins — sched's leaves, in order — claimed, and for a minor
// merge the view v pinned (see shadowedBy), it executes sched's merges
// off-lock, then installs the root in their place (see install) and drops
// its claim and the pin. On any failure the outputs are deleted and the
// table set stays as it was. Only a major compaction's root, which covers
// all data, drops tombstones, and only a major compaction moves the state
// machine and runs the swap hook. pick is the name Stats.CompactionPicks
// counts the compaction under. Called and returns without mu.
func (db *DB) compact(pick string, sched *compaction.Schedule, ins []*tableHandle, v *readView, major bool) (*CompactionResult, error) {
	if v != nil {
		defer v.unpin()
	}
	if major {
		db.setState(CompactionMerging)
	}
	var purged atomic.Uint64
	nodes, stats, err := db.executeSchedule(sched, ins, shadowedBy(v, ins, &purged), major)
	created := nodes[len(ins):]
	res := &CompactionResult{Strategy: pick, TablesBefore: len(ins), VersionsPurged: purged.Load()}
	res.record(ins, stats)
	if err == nil && major && db.hookBeforeSwap != nil {
		if err = db.hookBeforeSwap(); err != nil {
			// Simulated crash between merge completion and manifest swap:
			// leave the merge outputs on disk (recovery must delete them as
			// orphans) and keep the old table set.
			for _, th := range created {
				th.rd.Close()
			}
			created = nil
		}
	}
	if err == nil {
		err = db.install(res, sched, nodes, major)
	}
	if err != nil {
		for _, th := range created {
			if th != nil {
				th.rd.Close()
				db.removeFile(th.name)
			}
		}
		db.unclaim(ins)
		return nil, err
	}
	releaseTables(ins) // the claim's reference
	return res, nil
}

// install swaps an executed schedule's root into the table set and the
// manifest in place of its leaves, and retires the leaves and the
// intermediate outputs. The root takes the newest leaf's position and the
// deepest leaf's level, or the deeper level its plan gives it (a leveled
// pick within one level moves down one). On failure nothing changes.
func (db *DB) install(res *CompactionResult, sched *compaction.Schedule, nodes []*tableHandle, major bool) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if major {
		db.setState(CompactionSwapping)
	}
	if db.closed {
		return ErrClosed
	}
	ins, root := nodes[:len(sched.Leaves)], nodes[sched.Root.ID]
	retired := make(map[*tableHandle]bool, len(ins))
	for _, th := range ins {
		retired[th] = true
		root.level = max(root.level, th.level)
	}
	if lt := sched.Root.Live; lt != nil {
		root.level = max(root.level, lt.Level)
	}
	kept := make([]*tableHandle, 0, len(db.tables)-len(ins)+1)
	placed := false
	for _, th := range db.tables {
		if !retired[th] {
			kept = append(kept, th)
		} else if !placed {
			kept = append(kept, root)
			placed = true
		}
	}
	if err := db.setTablesLocked(kept); err != nil {
		if errors.Is(err, vfs.ErrRenamed) {
			// The manifest renamed into place names the root, so its file
			// stays for the next Open: compact's clean-up skips a nil node.
			root.rd.Close()
			nodes[sched.Root.ID] = nil
		}
		return err
	}
	if major {
		db.stats.MajorCompactions++
	} else {
		db.stats.MinorCompactions++
	}
	db.stats.BytesCompacted += res.BytesWritten
	db.stats.VersionsPurged += res.VersionsPurged
	db.recordPickLocked(res.Strategy)
	res.TablesAfter = len(kept)
	// Retired inputs may still be referenced by concurrent scans; the last
	// reference closes the reader and deletes the file. Intermediate merge
	// outputs are referenced by nobody else and die now.
	for _, th := range nodes {
		if th != root {
			th.compacting = false
			th.obsolete.Store(true)
			th.release()
		}
	}
	return nil
}

// allocTableName reserves the next sstable file number in a brief critical
// section, so merge workers running off-lock never collide with concurrent
// flushes.
func (db *DB) allocTableName() string {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.allocTableNameLocked()
}

func (db *DB) allocTableNameLocked() string {
	name := fmt.Sprintf("%06d.sst", db.man.nextFileNum)
	db.man.nextFileNum++
	return name
}

// executeSchedule runs sched's merges on the compaction package's worker
// pool (compaction.ExecuteParallelFunc): leaf i of the schedule is snap[i],
// every step merges its inputs' files into a fresh sstable, dropping what
// shadowed reports, and independent steps run concurrently up to
// Options.CompactionWorkers. Tombstones survive intermediate merges —
// dropping one early would let an older version in a not-yet-merged table
// resurface — and are purged only at a major compaction's root merge, which
// covers all data.
//
// The returned slice maps node ID → handle: the first len(snap) entries
// are the inputs, the rest the created merge outputs (nil where a step did
// not run). On error the caller owns closing and removing created tables.
func (db *DB) executeSchedule(sched *compaction.Schedule, snap []*tableHandle, shadowed func(iterator.Entry) bool, major bool) ([]*tableHandle, []sstable.MergeStats, error) {
	nodes := make([]*tableHandle, len(snap)+len(sched.Steps))
	for i, th := range snap {
		nodes[i] = th
	}
	stats := make([]sstable.MergeStats, len(sched.Steps))
	rootID := sched.Root.ID
	run := func(i int) error {
		step := sched.Steps[i]
		inputs := make([]*sstable.Reader, len(step.Inputs))
		for j, in := range step.Inputs {
			if in.ID >= len(nodes) || nodes[in.ID] == nil {
				return fmt.Errorf("lsm: compaction step references unknown node %d", in.ID)
			}
			inputs[j] = nodes[in.ID].rd
		}
		drop := shadowed
		if major && step.Output.ID == rootID {
			drop = iterator.IsTombstone
		}
		name := db.allocTableName()
		rd, mstats, err := db.mergeTables(name, drop, inputs)
		if err != nil {
			return err
		}
		nodes[step.Output.ID] = db.newTableHandle(name, rd)
		stats[i] = mstats
		return nil
	}
	err := compaction.ExecuteParallelFunc(sched, db.opts.CompactionWorkers, run)
	return nodes, stats, err
}

// planMajor schedules the merge of snap down to one table from the
// statistics the tables persist — entry counts, key bounds, key sketches —
// without reading a data block.
func planMajor(snap []*tableHandle, k int, chooser compaction.Chooser) (*compaction.Schedule, error) {
	live := make([]compaction.LiveTable, len(snap))
	for i, th := range snap {
		live[i] = th.live()
	}
	return compaction.Plan(live, k, chooser)
}

// record totals the executed merges into the result: bytes moved, and the
// paper's costs in keys as the merges counted them.
func (r *CompactionResult) record(snap []*tableHandle, stats []sstable.MergeStats) {
	r.StepStats = stats
	for _, th := range snap {
		r.CostSimple += int(th.rd.EntryCount())
	}
	for _, st := range stats {
		r.BytesRead += st.BytesRead
		r.BytesWritten += st.BytesWritten
		r.CostSimple += int(st.EntriesOut)
		r.CostActual += int(st.EntriesIn + st.EntriesOut)
	}
}
