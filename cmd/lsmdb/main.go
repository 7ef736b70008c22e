// Command lsmdb is a small interactive/scriptable shell over the LSM
// engine, for poking at the real write path through the public kv API:
// puts land in the WAL and memtable, flushes cut sstables, and
// `compact <strategy>` runs a major compaction scheduled by any strategy
// the engine plans with (the banner lists them), printing the abstract cost
// alongside the real bytes moved.
//
// Usage:
//
//	lsmdb -dir /tmp/db [-shards 4]
//	lsmdb -cluster host1:4650,host2:4650,host3:4650 [-rf 3 -w 2 -r 2]
//
// With -cluster the shell speaks to a replicated cluster of lsmserver
// nodes through the quorum client instead of opening a local directory:
// every put fans out to rf replicas and acks at w, every get resolves
// the newest version from r answers (r+w > rf).
//
// Commands (stdin, one per line):
//
//	put <key> <value>
//	get <key>
//	del <key>
//	scan [limit]
//	range <start> <end> [limit]
//	flush
//	compact <strategy> [k]     e.g. compact BT(I) 2
//	fill <n>                   insert n synthetic keys
//	stats
//	quit
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/compaction"
	"repro/kv"
)

func main() {
	dir := flag.String("dir", "", "database directory (required)")
	sync := flag.Bool("sync", false, "fsync the WAL on every write")
	shards := flag.Int("shards", 0, "engine shard count (0 = adopt existing store, 1 for a new one)")
	auto := flag.String("auto", "none", "auto minor compaction: size-tiered, threshold, leveled, a paper strategy (SI, SO, BT, BT(I), BT(O), CHAIN, RANDOM), or none")
	clusterAddrs := flag.String("cluster", "", "comma-separated server addresses; connect as a quorum client instead of opening -dir")
	rf := flag.Int("rf", 3, "cluster replication factor N (with -cluster)")
	w := flag.Int("w", 2, "cluster write quorum W (with -cluster)")
	r := flag.Int("r", 2, "cluster read quorum R (with -cluster)")
	flag.Parse()

	var db kv.Engine
	var err error
	var at string
	if *clusterAddrs != "" {
		addrs := strings.Split(*clusterAddrs, ",")
		db, err = kv.DialCluster(addrs, kv.WithReplication(*rf, *w, *r))
		at = fmt.Sprintf("cluster %v (N=%d W=%d R=%d)", addrs, *rf, *w, *r)
	} else {
		if *dir == "" {
			fmt.Fprintln(os.Stderr, "lsmdb: -dir or -cluster is required")
			os.Exit(2)
		}
		opts := []kv.Option{kv.WithShards(*shards), kv.WithAutoCompact(*auto)}
		if *sync {
			opts = append(opts, kv.WithSyncWAL())
		}
		db, err = kv.Open(*dir, opts...)
		at = *dir
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lsmdb:", err)
		os.Exit(1)
	}
	defer db.Close()

	fmt.Printf("lsmdb at %s — strategies: %s\n", at, strings.Join(append(compaction.Baselines(), compaction.LiveStrategies()...), ", "))
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if line == "quit" || line == "exit" {
			return
		}
		if err := execute(db, line); err != nil {
			fmt.Println("error:", err)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "lsmdb:", err)
		os.Exit(1)
	}
}

func execute(db kv.Engine, line string) error {
	ctx := context.Background()
	fields := strings.Fields(line)
	cmd, args := fields[0], fields[1:]
	switch cmd {
	case "put":
		if len(args) < 2 {
			return fmt.Errorf("usage: put <key> <value>")
		}
		return db.Put(ctx, []byte(args[0]), []byte(strings.Join(args[1:], " ")))
	case "get":
		if len(args) != 1 {
			return fmt.Errorf("usage: get <key>")
		}
		v, err := db.Get(ctx, []byte(args[0]))
		if err != nil {
			return err
		}
		fmt.Println(string(v))
		return nil
	case "del":
		if len(args) != 1 {
			return fmt.Errorf("usage: del <key>")
		}
		return db.Delete(ctx, []byte(args[0]))
	case "scan":
		limit := -1
		if len(args) == 1 {
			n, err := strconv.Atoi(args[0])
			if err != nil {
				return err
			}
			limit = n
		}
		return printRange(ctx, db, nil, nil, limit)
	case "range":
		if len(args) < 2 {
			return fmt.Errorf("usage: range <start> <end> [limit]")
		}
		limit := -1
		if len(args) >= 3 {
			n, err := strconv.Atoi(args[2])
			if err != nil {
				return err
			}
			limit = n
		}
		return printRange(ctx, db, []byte(args[0]), []byte(args[1]), limit)
	case "flush":
		return db.Flush(ctx)
	case "compact":
		if len(args) < 1 {
			return fmt.Errorf("usage: compact <strategy> [k]")
		}
		copts := kv.CompactOptions{Strategy: args[0]}
		if len(args) >= 2 {
			n, err := strconv.Atoi(args[1])
			if err != nil {
				return err
			}
			copts.K = n
		}
		res, err := db.Compact(ctx, &copts)
		if err != nil {
			return err
		}
		fmt.Printf("compacted %d tables in %d merges: cost=%d keys (costactual), io=%d bytes (%d read + %d written), took %v\n",
			res.TablesBefore, res.Merges, res.CostActual,
			res.BytesRead+res.BytesWritten, res.BytesRead, res.BytesWritten, res.Duration)
		return nil
	case "fill":
		if len(args) != 1 {
			return fmt.Errorf("usage: fill <n>")
		}
		n, err := strconv.Atoi(args[0])
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := db.Put(ctx, []byte(fmt.Sprintf("key-%08d", i)), []byte(fmt.Sprintf("value-%d", i))); err != nil {
				return err
			}
		}
		fmt.Printf("inserted %d keys\n", n)
		return nil
	case "stats":
		st, err := db.Stats(ctx)
		if err != nil {
			return err
		}
		fmt.Printf("shards=%d tables=%d table_bytes=%d memtable_keys=%d flushes=%d filter_neg=%d\n",
			st.Shards, st.Tables, st.TableBytes, st.MemtableKeys, st.Flushes, st.FilterNegatives)
		if c := st.Cluster; c != nil {
			fmt.Printf("  cluster: nodes=%d down=%d n=%d w=%d r=%d hints_parked=%d hints_replayed=%d read_repairs=%d reads=%d read_legs=%d hedged_reads=%d\n",
				c.Nodes, c.DownNodes, c.ReplicationFactor, c.WriteQuorum, c.ReadQuorum,
				c.HintsParked, c.HintsReplayed, c.ReadRepairs, c.Reads, c.ReadLegs, c.HedgedReads)
		}
		for i, ss := range st.PerShard {
			fmt.Printf("  shard %03d: tables=%d table_bytes=%d memtable_keys=%d flushes=%d\n",
				i, ss.Tables, ss.TableBytes, ss.MemtableKeys, ss.Flushes)
		}
		return nil
	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}

// printRange drains an iterator to stdout, stopping at limit when >= 0.
func printRange(ctx context.Context, db kv.Engine, start, end []byte, limit int) error {
	it, err := db.NewIterator(ctx, start, end)
	if err != nil {
		return err
	}
	defer it.Close()
	count := 0
	for ; it.Valid(); it.Next() {
		if limit >= 0 && count >= limit {
			break
		}
		fmt.Printf("%s = %s\n", it.Key(), it.Value())
		count++
	}
	if err := it.Err(); err != nil {
		return err
	}
	fmt.Printf("(%d keys)\n", count)
	return nil
}
