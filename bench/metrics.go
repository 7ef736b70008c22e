package main

// metricDef names one metric. The lists below are the harness's copy of
// BENCHMARK.json; the smoke test fails if the two differ.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what the benchmark gates: set-up time plus every cost a user
// of the system pays that this sandbox can measure steadily — the bytes the
// engine reads and writes per operation and per user byte, the space it
// keeps, the memory it allocates and holds, and whether operations succeed.
// Every workload reports all of them from the timed (untraced) run. The
// bounds are a little over three times the widest quartile spread seen
// across seeds at the commit that added the harness.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"write_amp", "ratio", lower, 0.02},
	{"space_amp", "ratio", lower, 0.02},
	{"read_bytes_per_op", "B", lower, 0.12},
	{"write_bytes_per_op", "B", lower, 0.04},
	{"allocs_per_op", "count", lower, 0.10},
	{"alloc_bytes_per_op", "B", lower, 0.10},
	{"heap_peak_mb", "MiB", lower, 0.25},
	{"ok_ops_frac", "ratio", higher, 0.001},
}

// timings are the wall-clock and CPU-time metrics of a timed run. They are
// printed, written to the result file and compared by -compare against the
// bounds below, but they are not in BENCHMARK.json's end_to_end list: on
// this shared host the same binary's throughput drifts by a fifth over
// minutes (see README.md, "Why timings are not gated"), and a metric that
// cannot repeat within its bound is reported, not gated.
var timings = []metricDef{
	{"ops_per_s", "op/s", higher, 0.10},
	{"cpu_us_per_op", "us", lower, 0.07},
	{"read_p50_us", "us", lower, 0.10},
	{"write_p50_us", "us", lower, 0.10},
}

// perLayer is reported by the traced run (-trace 1). A metric whose layer
// is not on a workload's path is left out of that workload's report (and
// printed as 0 on the driver's result line, which must carry every name).
var perLayer = []metricDef{
	// kv: what the client observes, from the traced run's reference phase
	// (one client, span recording off).
	{Name: "kv.ops_per_s", Unit: "op/s", Better: higher},
	{Name: "kv.cpu_us_per_op", Unit: "us", Better: lower},
	{Name: "kv.read_p50_us", Unit: "us", Better: lower},
	{Name: "kv.write_p50_us", Unit: "us", Better: lower},
	{Name: "kv.get_p99_us", Unit: "us", Better: lower},
	{Name: "kv.get_p999_us", Unit: "us", Better: lower},
	{Name: "kv.put_p99_us", Unit: "us", Better: lower},
	{Name: "kv.put_p999_us", Unit: "us", Better: lower},
	{Name: "kv.put_max_ms", Unit: "ms", Better: lower},
	{Name: "kv.scan_p50_us", Unit: "us", Better: lower},
	{Name: "kv.scan_p99_us", Unit: "us", Better: lower},
	{Name: "kv.get_samples", Unit: "count", Better: higher},
	{Name: "kv.put_samples", Unit: "count", Better: higher},
	{Name: "kv.scan_samples", Unit: "count", Better: higher},
	{Name: "kv.trace_overhead_frac", Unit: "ratio", Better: lower},
	{Name: "kv.harness_self_us", Unit: "us", Better: lower},
	{Name: "kv.self_sum_frac", Unit: "ratio", Better: higher},
	// lsm: the engine between the client call and the filesystem.
	{Name: "lsm.get_self_us", Unit: "us", Better: lower},
	{Name: "lsm.put_self_us", Unit: "us", Better: lower},
	{Name: "lsm.scan_self_us", Unit: "us", Better: lower},
	{Name: "lsm.maintenance_frac", Unit: "ratio", Better: lower},
	{Name: "lsm.maintenance_us_per_put", Unit: "us", Better: lower},
	{Name: "lsm.flushes", Unit: "count", Better: lower},
	{Name: "lsm.minor_compactions", Unit: "count", Better: lower},
	{Name: "lsm.tables_end", Unit: "count", Better: lower},
	{Name: "lsm.write_stall_ms", Unit: "ms", Better: lower},
	{Name: "lsm.group_size", Unit: "ratio", Better: higher},
	{Name: "lsm.wal_syncs_per_write", Unit: "ratio", Better: lower},
	{Name: "store.shard_imbalance", Unit: "ratio", Better: lower},
	{Name: "store.put_self_us", Unit: "us", Better: lower},
	{Name: "wal.bytes_per_put", Unit: "B", Better: lower},
	{Name: "wal.write_calls_per_put", Unit: "count", Better: lower},
	{Name: "wal.write_us_per_put", Unit: "us", Better: lower},
	{Name: "wal.append_ns_per_record", Unit: "ns", Better: lower},
	{Name: "memtable.put_ns", Unit: "ns", Better: lower},
	{Name: "memtable.get_ns", Unit: "ns", Better: lower},
	{Name: "sstable.readat_per_get", Unit: "count", Better: lower},
	{Name: "sstable.read_bytes_per_get", Unit: "B", Better: lower},
	{Name: "sstable.filter_negatives_per_get", Unit: "count", Better: lower},
	{Name: "sstable.filter_fp_rate", Unit: "ratio", Better: lower},
	{Name: "sstable.cold_get_us", Unit: "us", Better: lower},
	{Name: "sstable.absent_get_us", Unit: "us", Better: lower},
	{Name: "sstable.scan_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "sstable.write_ns_per_entry", Unit: "ns", Better: lower},
	{Name: "cache.hit_rate", Unit: "ratio", Better: higher},
	{Name: "cache.shard_balance", Unit: "ratio", Better: lower},
	{Name: "cache.get_hit_ns", Unit: "ns", Better: lower},
	{Name: "compaction.picks", Unit: "count", Better: lower},
	{Name: "compaction.bytes_rewritten_per_user_byte", Unit: "ratio", Better: lower},
	{Name: "compaction.major_s", Unit: "s", Better: lower},
	{Name: "compaction.major_merges", Unit: "count", Better: lower},
	{Name: "compaction.major_cost_actual", Unit: "count", Better: lower},
	{Name: "compaction.major_mb_per_s", Unit: "MB/s", Better: higher},
	{Name: "compaction.pick_us", Unit: "us", Better: lower},
	{Name: "vfs.write_calls", Unit: "count", Better: lower},
	{Name: "vfs.write_bytes", Unit: "B", Better: lower},
	{Name: "vfs.write_ms", Unit: "ms", Better: lower},
	{Name: "vfs.readat_calls", Unit: "count", Better: lower},
	{Name: "vfs.readat_bytes", Unit: "B", Better: lower},
	{Name: "vfs.readat_ms", Unit: "ms", Better: lower},
	{Name: "vfs.sync_calls", Unit: "count", Better: lower},
	{Name: "vfs.sync_ms", Unit: "ms", Better: lower},
	{Name: "vfs.creates", Unit: "count", Better: lower},
	{Name: "vfs.removes", Unit: "count", Better: lower},
	{Name: "vfs.bytes_written_per_user_byte", Unit: "ratio", Better: lower},
	{Name: "kvnet.get_wire_us", Unit: "us", Better: lower},
	{Name: "kvnet.put_wire_us", Unit: "us", Better: lower},
	{Name: "kvnet.round_trips_per_op", Unit: "count", Better: lower},
	{Name: "kvnet.scan_overfetch", Unit: "ratio", Better: lower},
	{Name: "kvnet.null_rtt_us", Unit: "us", Better: lower},
	{Name: "cluster.replica_calls_per_get", Unit: "count", Better: lower},
	{Name: "cluster.replica_calls_per_put", Unit: "count", Better: lower},
	{Name: "cluster.router_get_self_us", Unit: "us", Better: lower},
	{Name: "cluster.router_put_self_us", Unit: "us", Better: lower},
	{Name: "cluster.read_repairs", Unit: "count", Better: lower},
	{Name: "cluster.hints_parked", Unit: "count", Better: lower},
	{Name: "cluster.node_imbalance", Unit: "ratio", Better: lower},
}
