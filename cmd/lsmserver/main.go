// Command lsmserver serves an LSM store over TCP with the kvnet protocol —
// the single-node NoSQL server of the paper's setting: writes buffer in a
// memtable backed by a WAL, sstables accumulate on disk, minor compactions
// (kv.Open's default, BT(I) at fan-in 4, unless -auto says otherwise; never
// after an explicit Flush) keep the table count bounded, and clients can
// trigger a major compaction with any strategy that plans from table stats.
//
// The process is a thin shell over the public kv package: kv.Open builds
// the engine (single partition or -shards N hash-sharded) and kv.NewServer
// serves it. The process owns its one HTTP server: -stats-http mounts
// kv.StatsHandler at /stats, the same statistics kv.Engine.Stats reports,
// as JSON for scraping — no log-line parsing needed.
//
// The -auto policy is the one automatic compaction path. A major
// compaction runs only when a client asks for one, and reads and writes
// keep being served while its merges run.
//
// A replicated deployment is just several of these processes: the servers
// hold no replication state — clients connect to all of them at once with
// kv.DialCluster (or `lsmdb -cluster addr1,addr2,addr3`), which replicates
// every key across N nodes with quorum writes/reads, failure detection,
// hinted handoff and read repair.
//
// Usage:
//
//	lsmserver -dir /var/lib/lsm -listen 127.0.0.1:7700
//	lsmserver -dir /var/lib/lsm -auto size-tiered
//	lsmserver -dir /var/lib/lsm -shards 4 -sync -stats-http 127.0.0.1:7701
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/compaction"
	"repro/kv"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "lsmserver:", err)
		os.Exit(1)
	}
}

func run() error {
	autoUsage := fmt.Sprintf("auto minor compaction: %s, a paper strategy (%s), or none (empty: kv.Open's default)", strings.Join(compaction.Baselines(), ", "), strings.Join(compaction.LiveStrategies(), ", "))
	var (
		dir        = flag.String("dir", "", "database directory (required)")
		listen     = flag.String("listen", "127.0.0.1:7700", "listen address")
		auto       = flag.String("auto", "", autoUsage)
		memSize    = flag.Int("memtable", 4<<20, "memtable flush threshold in bytes, per shard (total buffered memory is shards x this)")
		sync       = flag.Bool("sync", false, "fsync the WAL on every write")
		statsEvery = flag.Duration("stats-every", 0, "periodically log write-pipeline stats (0 = off)")
		statsHTTP  = flag.String("stats-http", "", "serve engine stats as JSON at this address (GET /stats; empty = off)")
		shards     = flag.Int("shards", 0, "engine shard count (0 = adopt existing store, 1 for a new one)")
	)
	flag.Parse()
	if *dir == "" {
		return fmt.Errorf("-dir is required")
	}

	opts := []kv.Option{
		kv.WithShards(*shards),
		kv.WithMemtableBytes(*memSize),
		kv.WithAutoCompact(*auto),
	}
	if *sync {
		opts = append(opts, kv.WithSyncWAL())
	}
	eng, err := kv.Open(*dir, opts...)
	if err != nil {
		return err
	}
	defer eng.Close()

	extra := ""
	if *statsHTTP != "" {
		hln, err := net.Listen("tcp", *statsHTTP)
		if err != nil {
			return err
		}
		mux := http.NewServeMux()
		mux.Handle("/stats", kv.StatsHandler(eng))
		hsrv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
		go hsrv.Serve(hln)
		defer hsrv.Close()
		extra = fmt.Sprintf(", stats at http://%s/stats", hln.Addr())
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv, err := kv.NewServer(eng)
	if err != nil {
		return err
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		fmt.Fprintln(os.Stderr, "lsmserver: shutting down")
		srv.Close()
	}()

	ctx := context.Background()
	st, err := eng.Stats(ctx)
	if err != nil {
		return err
	}
	if st.WALRecoveryTruncated {
		fmt.Fprintf(os.Stderr,
			"lsmserver: WAL recovery was truncated by a crash: recovered %d records (%d batches, %d bytes)\n",
			st.WALRecoveredRecords, st.WALRecoveredBatches, st.WALRecoveredBytes)
	}
	if *statsEvery > 0 {
		go logStats(ctx, eng, srv, *statsEvery)
	}

	fmt.Printf("lsmserver: serving %s on %s (shards=%d%s)\n", *dir, ln.Addr(), st.Shards, extra)
	err = srv.Serve(ln)
	if errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// logStats periodically prints a one-line pipeline summary, ending with the
// connection layer's counters (a client reaped by its lease shows up as
// lease-expiries going up while streams or snapshots go down); the JSON
// endpoint (-stats-http) is the machine-readable channel, this one is for
// humans tailing the log.
func logStats(ctx context.Context, eng kv.Engine, srv *kv.Server, every time.Duration) {
	var last kv.Stats
	tick := time.NewTicker(every)
	defer tick.Stop()
	for range tick.C {
		st, err := eng.Stats(ctx)
		if err != nil {
			return
		}
		groups := st.GroupCommits - last.GroupCommits
		writes := st.GroupedWrites - last.GroupedWrites
		syncs := st.WALSyncs - last.WALSyncs
		groupSize, syncsPerWrite := 0.0, 0.0
		if groups > 0 {
			groupSize = float64(writes) / float64(groups)
		}
		if writes > 0 {
			syncsPerWrite = float64(syncs) / float64(writes)
		}
		cacheHitPct := 0.0
		if lookups := st.BlockCacheHits + st.BlockCacheMisses; lookups > 0 {
			cacheHitPct = 100 * float64(st.BlockCacheHits) / float64(lookups)
		}
		writeAmp := 0.0
		if st.BytesFlushed > 0 {
			writeAmp = float64(st.BytesFlushed+st.BytesCompacted) / float64(st.BytesFlushed)
		}
		perShard := make([]string, 0, len(st.PerShard))
		for _, ss := range st.PerShard {
			perShard = append(perShard, fmt.Sprint(ss.Tables))
		}
		if len(perShard) == 0 {
			perShard = append(perShard, fmt.Sprint(st.Tables))
		}
		net := srv.Stats()
		fmt.Printf("lsmserver: stats tables=%d(%s) mem-keys=%d writes=%d groups=%d avg-group=%.1f syncs/write=%.3f cache-hit=%.1f%% cache-balance=%.2f filter-neg=%d filter-fp=%d stalls=%d stall-ms=%d write-amp=%.2f flushed=%d compacted=%d state=%s in-flight-high=%d streams=%d snapshots=%d lease-expiries=%d\n",
			st.Tables, strings.Join(perShard, "/"), st.MemtableKeys, writes, groups, groupSize,
			syncsPerWrite, cacheHitPct, st.BlockCacheShardBalance, st.FilterNegatives, st.FilterFalsePositives,
			st.WriteStalls, st.WriteStallNanos/1e6, writeAmp, st.BytesFlushed, st.BytesCompacted,
			st.CompactionState, net.InFlightHighWater, net.OpenStreams, net.OpenSnapshots, net.LeaseExpiries)
		last = st
	}
}
