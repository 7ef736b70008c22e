package lsm

import (
	"maps"
	"time"
)

// Stats reports store state. It is the one definition of the engine's
// counters: a store sums its shards' with Add, kvnet carries it as this
// JSON, and kv.Stats embeds it, so the json tags are the public /stats
// keys.
type Stats struct {
	// Tables is the number of live sstables.
	Tables int `json:"tables"`
	// TableBytes is the total size of live sstables on disk.
	TableBytes uint64 `json:"table_bytes"`
	// MemtableKeys is the number of keys buffered in the memtable, plus
	// those of a frozen memtable still being flushed.
	MemtableKeys int `json:"memtable_keys"`
	// Flushes counts memtable flushes since Open.
	Flushes int `json:"flushes"`
	// MinorCompactions counts minor compactions since Open.
	MinorCompactions int `json:"minor_compactions"`
	// MajorCompactions counts completed major compactions since Open.
	MajorCompactions int `json:"major_compactions"`
	// WriteStalls counts writes that filled the memtable and waited for the
	// previous one's flush, and WriteStallTime the cumulative wall time
	// those writers spent blocked (in JSON, integer nanoseconds).
	WriteStalls    int           `json:"write_stalls"`
	WriteStallTime time.Duration `json:"write_stall_nanos,omitempty"`
	// BytesFlushed totals sstable bytes written by memtable flushes and
	// BytesCompacted sstable bytes written by compactions, minor and major
	// alike. (BytesFlushed + BytesCompacted) / BytesFlushed is the store's
	// write amplification — the quantity the paper's compaction strategies
	// minimize.
	BytesFlushed   uint64 `json:"bytes_flushed,omitempty"`
	BytesCompacted uint64 `json:"bytes_compacted,omitempty"`
	// CompactionPicks counts completed compactions by the policy or
	// strategy name that picked them ("size-tiered", "SI", "BT(I)", ...).
	// Nil when no compaction has run.
	CompactionPicks map[string]uint64 `json:"compaction_picks,omitempty"`
	// VersionsPurged counts versions compactions dropped because a newer
	// version of the key lived on in a table outside the merge (see
	// docs/compaction.md, "What a merge drops").
	VersionsPurged uint64 `json:"versions_purged,omitempty"`
	// Generation counts committed table-set changes (flushes, compactions
	// and quarantines), one each; a change whose manifest save failed
	// does not count.
	Generation uint64 `json:"generation,omitempty"`
	// CompactionState is the major-compaction state machine's current
	// phase: "idle", "planning", "merging" or "swapping".
	CompactionState string `json:"compaction_state,omitempty"`
	// BlockCacheHits and BlockCacheMisses count the block-cache outcomes of
	// user reads (Get, scans, snapshots) only: compaction merges and
	// major-compaction planning read around the cache, and a block a flush
	// or merge publishes is neither a hit nor a miss. Both are zero when
	// the cache is disabled.
	BlockCacheHits   uint64 `json:"block_cache_hits"`
	BlockCacheMisses uint64 `json:"block_cache_misses"`
	// BlockCacheShardBalance is the ratio of the fullest block-cache
	// stripe's occupancy to the mean stripe occupancy (1.0 = perfectly
	// even, stripe count = fully skewed, 0 = empty or disabled cache): the
	// observable for hash-striping skew.
	BlockCacheShardBalance float64 `json:"block_cache_shard_balance,omitempty"`
	// FilterNegatives counts point lookups a Bloom filter rejected without
	// reading a data block (the I/O the filters saved); FilterFalsePositives
	// counts lookups a filter let through that found no key (the wasted
	// block probes). Their ratio is the realized filter effectiveness.
	FilterNegatives      uint64 `json:"filter_negatives"`
	FilterFalsePositives uint64 `json:"filter_false_positives"`
	// TablesProbed counts the tables point reads consulted past their key
	// range check, each a filter probe and perhaps a block read.
	TablesProbed uint64 `json:"tables_probed"`
	// GroupCommits counts commit groups written through the pipeline, and
	// GroupedWrites the records they carried; GroupedWrites/GroupCommits is
	// the average group size.
	GroupCommits  uint64 `json:"group_commits"`
	GroupedWrites uint64 `json:"grouped_writes"`
	// WALSyncs counts WAL fsyncs issued by group leaders; with SyncWAL,
	// WALSyncs/GroupedWrites is the (amortized) syncs-per-write ratio.
	WALSyncs uint64 `json:"wal_syncs"`
	// WALRecoveredRecords and WALRecoveredBatches count what WAL replay
	// recovered at Open; WALRecoveredBytes is the length of the log prefix
	// that replayed cleanly.
	WALRecoveredRecords int   `json:"wal_recovered_records,omitempty"`
	WALRecoveredBatches int   `json:"wal_recovered_batches,omitempty"`
	WALRecoveredBytes   int64 `json:"wal_recovered_bytes,omitempty"`
	// WALRecoveryTruncated reports that replay stopped at a torn or
	// corrupt frame instead of a clean end-of-file: the store recovered a
	// crash-truncated prefix rather than the full log.
	WALRecoveryTruncated bool `json:"wal_recovery_truncated,omitempty"`
	// ReadOnly reports the DB has permanently degraded to read-only after
	// a durability failure (a failed WAL or manifest fsync); writes fail
	// with ErrReadOnly while reads continue.
	ReadOnly bool `json:"read_only,omitempty"`
	// QuarantinedTables counts corrupt sstables renamed aside (.corrupt)
	// and dropped from the live set since Open.
	QuarantinedTables int `json:"quarantined_tables,omitempty"`
	// CleanupFailures counts file removals that failed — orphan cleanup,
	// obsolete-table deletion, aborted flush or compaction outputs. Each
	// is leaked-but-recoverable space the next Open retries.
	CleanupFailures uint64 `json:"cleanup_failures,omitempty"`
}

// statePhaseRank orders compaction phases by how deep into a compaction a
// store is, so a sum reports the busiest member's phase.
var statePhaseRank = map[string]int{
	CompactionIdle.String():     0,
	CompactionPlanning.String(): 1,
	CompactionMerging.String():  2,
	CompactionSwapping.String(): 3,
}

// Add folds o into s, as a store sums its shards and a cluster its nodes.
// Counters sum. ReadOnly and WALRecoveryTruncated hold if either side's
// does: a store is read-only for writes once any shard is. A cache's
// striping skew is a ratio, not a sum, so BlockCacheShardBalance takes the
// worse of the two, and CompactionState the busier phase (idle < planning
// < merging < swapping). o's CompactionPicks map is never shared.
func (s *Stats) Add(o Stats) {
	s.Tables += o.Tables
	s.TableBytes += o.TableBytes
	s.MemtableKeys += o.MemtableKeys
	s.Flushes += o.Flushes
	s.MinorCompactions += o.MinorCompactions
	s.MajorCompactions += o.MajorCompactions
	s.WriteStalls += o.WriteStalls
	s.WriteStallTime += o.WriteStallTime
	s.BytesFlushed += o.BytesFlushed
	s.BytesCompacted += o.BytesCompacted
	for name, n := range o.CompactionPicks {
		if s.CompactionPicks == nil {
			s.CompactionPicks = make(map[string]uint64, len(o.CompactionPicks))
		}
		s.CompactionPicks[name] += n
	}
	s.VersionsPurged += o.VersionsPurged
	s.Generation += o.Generation
	if s.CompactionState == "" || statePhaseRank[o.CompactionState] > statePhaseRank[s.CompactionState] {
		s.CompactionState = o.CompactionState
	}
	s.BlockCacheHits += o.BlockCacheHits
	s.BlockCacheMisses += o.BlockCacheMisses
	s.BlockCacheShardBalance = max(s.BlockCacheShardBalance, o.BlockCacheShardBalance)
	s.FilterNegatives += o.FilterNegatives
	s.FilterFalsePositives += o.FilterFalsePositives
	s.TablesProbed += o.TablesProbed
	s.GroupCommits += o.GroupCommits
	s.GroupedWrites += o.GroupedWrites
	s.WALSyncs += o.WALSyncs
	s.WALRecoveredRecords += o.WALRecoveredRecords
	s.WALRecoveredBatches += o.WALRecoveredBatches
	s.WALRecoveredBytes += o.WALRecoveredBytes
	s.WALRecoveryTruncated = s.WALRecoveryTruncated || o.WALRecoveryTruncated
	s.ReadOnly = s.ReadOnly || o.ReadOnly
	s.QuarantinedTables += o.QuarantinedTables
	s.CleanupFailures += o.CleanupFailures
}

// Stats returns a snapshot of store statistics: the counters the DB keeps
// under mu, plus the state and the lock-free counters read now.
func (db *DB) Stats() Stats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	st := db.stats
	st.CompactionPicks = maps.Clone(db.stats.CompactionPicks)
	st.Tables = len(db.tables)
	for _, th := range db.tables {
		st.TableBytes += th.rd.FileSize()
	}
	st.MemtableKeys = db.mem.Len()
	if db.imm != nil {
		st.MemtableKeys += db.imm.Len()
	}
	st.CompactionState = db.CompactionState().String()
	if db.blockCache != nil {
		st.BlockCacheHits, st.BlockCacheMisses, _ = db.blockCache.Stats()
		st.BlockCacheShardBalance = db.blockCache.Balance()
	}
	st.FilterNegatives = db.filterMetrics.Negatives.Load()
	st.FilterFalsePositives = db.filterMetrics.FalsePositives.Load()
	st.TablesProbed = db.tablesProbed.Load()
	st.ReadOnly = db.roCause != nil
	st.CleanupFailures = db.cleanupFails.Load()
	return st
}
