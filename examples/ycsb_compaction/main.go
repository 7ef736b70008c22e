// ycsb_compaction benchmarks compaction policies against each other on the
// real engine: for every (strategy, shard count) pair it drives a
// write-heavy YCSB workload through a fresh store with that policy as the
// live auto-compaction picker, then measures point-read throughput against
// the resulting table layout. Write amplification ((flushed + compacted) /
// flushed), merge counts, write-stall time and read/write throughput land
// in the -bench FILE as JSON — the strategy-vs-strategy comparison the
// paper's model (cmd/compactsim) cannot make, because it never pays real
// I/O.
//
//	go run ./examples/ycsb_compaction -bench out.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/ycsb"
	"repro/kv"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("ycsb_compaction: ")
	bench := flag.String("bench", "", "benchmark auto-compaction policies on the real engine and write JSON results to this file")
	benchOps := flag.Int("bench-ops", 40000, "benchmark run-phase operation count")
	benchRecords := flag.Int("bench-records", 5000, "benchmark load-phase record count")
	benchReads := flag.Int("bench-reads", 8000, "benchmark point reads against the final layout")
	benchMem := flag.Int("bench-memtable", 256<<10, "benchmark per-shard memtable bytes")
	benchUpdate := flag.Float64("bench-update", 0.9, "benchmark run-phase update proportion (rest are inserts)")
	benchK := flag.Int("bench-k", 0, "auto-compaction fan-in / leveled L0 trigger (0 = engine default)")
	benchShards := flag.String("bench-shards", "1,4", "comma-separated shard counts to benchmark")
	benchStrategies := flag.String("bench-strategies", "size-tiered,BT(I),leveled", "comma-separated auto-compaction policies to benchmark")
	flag.Parse()

	if *bench == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := runBench(benchConfig{
		Out:        *bench,
		Ops:        *benchOps,
		Records:    *benchRecords,
		Reads:      *benchReads,
		Memtable:   *benchMem,
		Update:     *benchUpdate,
		K:          *benchK,
		Shards:     splitInts(*benchShards),
		Strategies: splitNames(*benchStrategies),
	}); err != nil {
		log.Fatal(err)
	}
}

// benchConfig parameterizes the strategy-vs-strategy engine benchmark.
type benchConfig struct {
	Out        string
	Ops        int
	Records    int
	Reads      int
	Memtable   int
	Update     float64
	K          int
	Shards     []int
	Strategies []string
}

// benchResult is one (strategy, shards) measurement, serialized into the
// JSON report.
type benchResult struct {
	Strategy string `json:"strategy"`
	Shards   int    `json:"shards"`

	Writes         int     `json:"writes"`
	WriteOpsPerSec float64 `json:"write_ops_per_sec"`
	Reads          int     `json:"reads"`
	ReadOpsPerSec  float64 `json:"read_ops_per_sec"`

	BytesFlushed   uint64  `json:"bytes_flushed"`
	BytesCompacted uint64  `json:"bytes_compacted"`
	WriteAmp       float64 `json:"write_amp"`

	Flushes          int               `json:"flushes"`
	MinorCompactions int               `json:"minor_compactions"`
	MajorCompactions int               `json:"major_compactions"`
	Merges           int               `json:"merges"`
	CompactionPicks  map[string]uint64 `json:"compaction_picks,omitempty"`

	WriteStalls  int     `json:"write_stalls"`
	WriteStallMs float64 `json:"write_stall_ms"`
	Tables       int     `json:"tables"`
}

// benchReport is the top-level shape of the JSON file.
type benchReport struct {
	Workload map[string]any `json:"workload"`
	Results  []benchResult  `json:"results"`
}

// runBench drives the write-heavy workload through a fresh store per
// (strategy, shards) pair and writes the comparison to cfg.Out.
func runBench(cfg benchConfig) error {
	if len(cfg.Shards) == 0 || len(cfg.Strategies) == 0 {
		return fmt.Errorf("bench needs at least one shard count and one strategy")
	}
	report := benchReport{
		Workload: map[string]any{
			"record_count":      cfg.Records,
			"operation_count":   cfg.Ops,
			"update_proportion": cfg.Update,
			"insert_proportion": 1 - cfg.Update,
			"distribution":      "latest",
			"memtable_bytes":    cfg.Memtable,
			"fan_in":            cfg.K,
			"value_bytes":       100,
			"point_reads":       cfg.Reads,
		},
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "strategy\tshards\twrites/s\treads/s\twrite-amp\tmerges\tstall-ms\ttables")
	for _, shards := range cfg.Shards {
		for _, strat := range cfg.Strategies {
			res, err := benchOne(cfg, strat, shards)
			if err != nil {
				return fmt.Errorf("bench %s shards=%d: %w", strat, shards, err)
			}
			report.Results = append(report.Results, res)
			fmt.Fprintf(tw, "%s\t%d\t%.0f\t%.0f\t%.2f\t%d\t%.0f\t%d\n",
				res.Strategy, res.Shards, res.WriteOpsPerSec, res.ReadOpsPerSec,
				res.WriteAmp, res.Merges, res.WriteStallMs, res.Tables)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	//lint:allow vfsdirect vfs.FS has no WriteFile; report JSON written outside the engine's filesystem seam
	if err := os.WriteFile(cfg.Out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", cfg.Out)
	return nil
}

// benchOne opens a fresh store with the named policy as the live
// auto-compaction picker, runs the write phase, then times point reads
// against the final layout.
func benchOne(cfg benchConfig, strategy string, shards int) (benchResult, error) {
	dir, err := os.MkdirTemp("", "ycsb-bench-")
	if err != nil {
		return benchResult{}, err
	}
	defer os.RemoveAll(dir) //lint:allow vfsdirect vfs.FS has no RemoveAll; example scratch-dir cleanup, not engine I/O
	ctx := context.Background()
	opts := []kv.Option{
		kv.WithShards(shards),
		kv.WithMemtableBytes(cfg.Memtable),
		kv.WithAutoCompact(strategy),
	}
	if cfg.K > 0 {
		opts = append(opts, kv.WithCompactionStrategy("", cfg.K))
	}
	st, err := kv.Open(dir, opts...)
	if err != nil {
		return benchResult{}, err
	}
	defer st.Close()

	gen, err := ycsb.NewGenerator(ycsb.Config{
		RecordCount:      cfg.Records,
		OperationCount:   cfg.Ops,
		UpdateProportion: cfg.Update,
		InsertProportion: 1 - cfg.Update,
		Distribution:     ycsb.Latest,
		Seed:             7,
	})
	if err != nil {
		return benchResult{}, err
	}
	value := []byte(strings.Repeat("x", 100))
	var keys [][]byte
	writes := 0
	start := time.Now()
	emit := func(op ycsb.Op) error {
		if !op.Mutates() {
			return nil
		}
		key := []byte(fmt.Sprintf("user%016x", op.Key))
		if err := st.Put(ctx, key, value); err != nil {
			return err
		}
		keys = append(keys, key)
		writes++
		return nil
	}
	for {
		op, ok := gen.NextLoad()
		if !ok {
			break
		}
		if err := emit(op); err != nil {
			return benchResult{}, err
		}
	}
	for {
		op, ok := gen.NextRun()
		if !ok {
			break
		}
		if err := emit(op); err != nil {
			return benchResult{}, err
		}
	}
	if err := st.Flush(ctx); err != nil {
		return benchResult{}, err
	}
	writeElapsed := time.Since(start)

	// Read phase: uniform point reads over the written keys, against the
	// layout the policy left behind — the part of the tradeoff the write
	// numbers alone cannot show.
	rng := rand.New(rand.NewSource(11))
	start = time.Now()
	for i := 0; i < cfg.Reads; i++ {
		key := keys[rng.Intn(len(keys))]
		if _, err := st.Get(ctx, key); err != nil {
			return benchResult{}, fmt.Errorf("get %q: %w", key, err)
		}
	}
	readElapsed := time.Since(start)

	stats, err := st.Stats(ctx)
	if err != nil {
		return benchResult{}, err
	}
	res := benchResult{
		Strategy:         strategy,
		Shards:           shards,
		Writes:           writes,
		WriteOpsPerSec:   float64(writes) / writeElapsed.Seconds(),
		Reads:            cfg.Reads,
		ReadOpsPerSec:    float64(cfg.Reads) / readElapsed.Seconds(),
		BytesFlushed:     stats.BytesFlushed,
		BytesCompacted:   stats.BytesCompacted,
		Flushes:          stats.Flushes,
		MinorCompactions: stats.MinorCompactions,
		MajorCompactions: stats.MajorCompactions,
		Merges:           stats.MinorCompactions + stats.MajorCompactions,
		CompactionPicks:  stats.CompactionPicks,
		WriteStalls:      stats.WriteStalls,
		WriteStallMs:     float64(stats.WriteStallNanos) / 1e6,
		Tables:           stats.Tables,
	}
	if stats.BytesFlushed > 0 {
		res.WriteAmp = float64(stats.BytesFlushed+stats.BytesCompacted) / float64(stats.BytesFlushed)
	}
	return res, nil
}

// splitInts parses a comma-separated int list, skipping empty elements.
func splitInts(s string) []int {
	var out []int
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			log.Fatalf("bad shard count %q", f)
		}
		out = append(out, n)
	}
	return out
}

// splitNames parses a comma-separated name list, skipping empty elements.
// Policy names are validated by kv.WithAutoCompact when the store opens.
func splitNames(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		out = append(out, f)
	}
	return out
}
