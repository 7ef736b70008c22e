package kv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/kvnet"
	"repro/internal/lsm"
)

// statsKeys are the keys /stats prints: kv.Stats's own and the json tags
// of the embedded lsm.Stats, as they stood when lsm.Stats became their one
// definition. Scripts and dashboards read them, so a key may be added but
// never renamed.
var statsKeys = strings.Fields(`backend shards tables table_bytes memtable_keys flushes
	minor_compactions major_compactions write_stalls write_stall_nanos bytes_flushed
	bytes_compacted compaction_picks versions_purged group_commits grouped_writes wal_syncs
	block_cache_hits block_cache_misses block_cache_shard_balance filter_negatives
	filter_false_positives compaction_state wal_recovered_records wal_recovered_batches
	wal_recovered_bytes wal_recovery_truncated read_only quarantined_tables cleanup_failures
	per_shard cluster`)

// TestWithStatsHandler: the optional HTTP endpoint serves the same Stats
// shape Engine.Stats returns, as JSON, on every backend; every key it
// prints is one of statsKeys or generation; every key statsKeys printed
// after the same fill and flush still prints; and the endpoint dies with
// the engine.
func TestWithStatsHandler(t *testing.T) {
	ctx := context.Background()
	const addr = "127.0.0.1:0"
	// printed is what every backend prints after a fill and a flush: the
	// counters without omitempty, plus those the fill and flush move.
	printed := strings.Fields(`backend tables table_bytes memtable_keys flushes
		minor_compactions major_compactions write_stalls bytes_flushed group_commits
		grouped_writes wal_syncs block_cache_hits block_cache_misses block_cache_shard_balance
		filter_negatives filter_false_positives compaction_state`)
	for _, tc := range []struct {
		name, backend string
		shards        int
		open          func(t *testing.T) (Engine, error)
		alsoPrinted   []string
	}{
		{"local-1", "local", 1, func(t *testing.T) (Engine, error) {
			return Open(t.TempDir(), WithStatsHandler(addr))
		}, []string{"shards"}},
		{"local-2", "local", 2, func(t *testing.T) (Engine, error) {
			return Open(t.TempDir(), WithShards(2), WithStatsHandler(addr))
		}, []string{"shards", "per_shard"}},
		{"remote", "remote", 0, func(t *testing.T) (Engine, error) {
			return Dial(serveLocal(t, 2), WithStatsHandler(addr))
		}, nil},
		{"cluster", "cluster", 0, func(t *testing.T) (Engine, error) {
			return DialCluster(startClusterNodes(t), WithStatsHandler(addr))
		}, []string{"cluster"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := tc.open(t)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			fillKeys(t, eng, 100)
			if err := eng.Flush(ctx); err != nil {
				t.Fatal(err)
			}

			url := fmt.Sprintf("http://%s/stats", eng.(interface{ statsListenAddr() string }).statsListenAddr())
			client := &http.Client{Timeout: 5 * time.Second}
			resp, err := client.Get(url)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /stats = %d", resp.StatusCode)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q", ct)
			}
			var raw json.RawMessage
			if err := json.NewDecoder(resp.Body).Decode(&raw); err != nil {
				t.Fatal(err)
			}
			var st Stats
			if err := json.Unmarshal(raw, &st); err != nil {
				t.Fatal(err)
			}
			if st.Backend != tc.backend || st.Shards != tc.shards {
				t.Errorf("stats = %s/%d shards, want %s/%d", st.Backend, st.Shards, tc.backend, tc.shards)
			}
			if st.Flushes == 0 || st.BytesFlushed == 0 || st.GroupedWrites == 0 {
				t.Errorf("counters lost on the way to /stats: %+v", st.Stats)
			}

			checkStatsKeys(t, "/stats", raw, append(slices.Clone(printed), tc.alsoPrinted...))
			var top struct {
				PerShard []json.RawMessage `json:"per_shard"`
			}
			if err := json.Unmarshal(raw, &top); err != nil {
				t.Fatal(err)
			}
			wantPer := 0 // per_shard exists above one shard only
			if tc.shards > 1 {
				wantPer = tc.shards
			}
			if len(top.PerShard) != wantPer {
				t.Errorf("per_shard has %d entries, want %d", len(top.PerShard), wantPer)
			}
			for i, ss := range top.PerShard {
				checkStatsKeys(t, fmt.Sprintf("per_shard[%d]", i), ss, append(slices.Clone(printed), "shards"))
			}

			// The endpoint dies with the engine.
			if err := eng.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := client.Get(url); err == nil {
				t.Error("stats endpoint still serving after engine close")
			}
		})
	}
}

// checkStatsKeys checks the keys of one /stats JSON object: each is one
// of statsKeys or generation, and each of want is present.
func checkStatsKeys(t *testing.T, what string, obj []byte, want []string) {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(obj, &m); err != nil {
		t.Fatal(err)
	}
	for k := range m {
		if k != "generation" && !slices.Contains(statsKeys, k) {
			t.Errorf("%s prints key %q, which is neither a published key nor generation", what, k)
		}
	}
	for _, k := range want {
		if _, ok := m[k]; !ok {
			t.Errorf("%s no longer prints %q", what, k)
		}
	}
}

// everyCounter returns an lsm.Stats whose every exported field holds a
// distinct non-zero value: numbers count up from 1 in field order, the
// picks map has one entry, CompactionState is "merging" and bools are
// true. A field of a kind it cannot fill fails the test, so a new counter
// is covered the day it is declared.
func everyCounter(t *testing.T) lsm.Stats {
	var st lsm.Stats
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		f, n := v.Field(i), i+1
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(int64(n))
		case reflect.Uint64:
			f.SetUint(uint64(n))
		case reflect.Float64:
			f.SetFloat(float64(n) + 0.25)
		case reflect.Bool:
			f.SetBool(true)
		case reflect.String:
			f.SetString(lsm.CompactionMerging.String())
		case reflect.Map:
			f.Set(reflect.ValueOf(map[string]uint64{"BT(I)": uint64(n)}))
		default:
			t.Fatalf("lsm.Stats.%s: no test value for a %s", v.Type().Field(i).Name, f.Kind())
		}
	}
	return st
}

// TestNoLayerDropsACounter: every counter lsm.Stats declares has its own
// snake_case key, survives a sum, the kvnet wire and the public JSON.
func TestNoLayerDropsACounter(t *testing.T) {
	want := everyCounter(t)

	snake := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	seen := map[string]string{"backend": "Stats.Backend", "shards": "Stats.Shards", "per_shard": "Stats.PerShard", "cluster": "Stats.Cluster"}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(want)) {
		key, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !snake.MatchString(key) {
			t.Errorf("lsm.Stats.%s has json key %q, want snake_case", f.Name, key)
			continue
		}
		if other, dup := seen[key]; dup {
			t.Errorf("lsm.Stats.%s and %s share json key %q", f.Name, other, key)
		}
		seen[key] = "lsm.Stats." + f.Name
	}

	var sum lsm.Stats
	sum.Add(want)
	if !reflect.DeepEqual(sum, want) {
		t.Errorf("Add into a zero Stats = %+v, want %+v", sum, want)
	}
	sum.CompactionPicks["BT(I)"]++
	if !reflect.DeepEqual(everyCounter(t), want) {
		t.Error("Add shares its argument's CompactionPicks map")
	}

	resp, err := kvnet.DecodeResponse(kvnet.EncodeResponse(kvnet.Response{Status: kvnet.StatusOK, Stats: &want}))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Stats == nil || !reflect.DeepEqual(*resp.Stats, want) {
		t.Errorf("kvnet round trip = %+v, want %+v", resp.Stats, want)
	}

	b, err := json.Marshal(statsFromLSM(want, "local", 1))
	if err != nil {
		t.Fatal(err)
	}
	var public Stats
	if err := json.Unmarshal(b, &public); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(public.Stats, want) {
		t.Errorf("public JSON round trip = %+v, want %+v", public.Stats, want)
	}
	if got := statsFromLSM(want, "local", 1).WriteStallNanos; got != want.WriteStallTime.Nanoseconds() {
		t.Errorf("WriteStallNanos = %d, want %d", got, want.WriteStallTime.Nanoseconds())
	}
}

// sameCounters fails unless got reports want's counters, every one of them.
func sameCounters(t *testing.T, what string, got, want Stats) {
	t.Helper()
	if !reflect.DeepEqual(got.Stats, want.Stats) || got.WriteStallNanos != want.WriteStallNanos {
		t.Errorf("%s Stats = %+v (stall %d ns), want %+v (stall %d ns)", what, got.Stats, got.WriteStallNanos, want.Stats, want.WriteStallNanos)
	}
}

// TestRemoteAndClusterStatsCarryEveryCounter: kv.Dial reports the served
// engine's counters, every one of them, and DialCluster their sum over its
// nodes.
func TestRemoteAndClusterStatsCarryEveryCounter(t *testing.T) {
	ctx := context.Background()
	var (
		nodes []Engine
		addrs []string
	)
	for i := 0; i < 3; i++ {
		eng := openLocal(t, 1)
		for gen := 0; gen < 2; gen++ {
			fillKeys(t, eng, 200+100*i)
			if err := eng.Flush(ctx); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := eng.Compact(ctx, nil); err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 50; j++ {
			if _, err := eng.Get(ctx, []byte(fmt.Sprintf("k%04d", j))); err != nil { // a block-cache hit
				t.Fatal(err)
			}
			if _, err := eng.Get(ctx, []byte(fmt.Sprintf("k%04d-absent", j))); !errors.Is(err, ErrNotFound) { // a filter negative
				t.Fatal(err)
			}
		}
		srv, err := NewServer(eng)
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() { srv.Close() })
		nodes, addrs = append(nodes, eng), append(addrs, ln.Addr().String())
	}

	remote, err := Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	clustered, err := DialCluster(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer clustered.Close()
	rst, err := remote.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	cst, err := clustered.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}

	var sum lsm.Stats
	for i, eng := range nodes {
		st, err := eng.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.BytesFlushed == 0 || st.BytesCompacted == 0 || st.BlockCacheHits == 0 || st.FilterNegatives == 0 || len(st.CompactionPicks) == 0 || st.Generation == 0 {
			t.Fatalf("node %d: set-up left a counter at zero: %+v", i, st.Stats)
		}
		if i == 0 {
			sameCounters(t, "remote", rst, st)
		}
		sum.Add(st.Stats)
	}
	sameCounters(t, "cluster", cst, statsFromLSM(sum, "cluster", 0))
}

// TestClusterStatsCountReadLegs: "how many replicas does a Get touch" is
// answered by the cluster engine's own stats — through Engine.Stats and
// through the /stats JSON alike. With every node up and nothing slow, a
// Get asks R = 2 of its N = 3 replicas.
func TestClusterStatsCountReadLegs(t *testing.T) {
	eng, err := DialCluster(startClusterNodes(t), WithStatsHandler("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ctx := context.Background()
	fillKeys(t, eng, 50)
	st, err := eng.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	before := *st.Cluster
	const gets = 40
	for i := 0; i < gets; i++ {
		if _, err := eng.Get(ctx, []byte(fmt.Sprintf("k%04d", i))); err != nil {
			t.Fatal(err)
		}
	}

	resp, err := (&http.Client{Timeout: 5 * time.Second}).Get(fmt.Sprintf("http://%s/stats", eng.(*clusterEngine).statsListenAddr()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var served Stats
	if err := json.NewDecoder(resp.Body).Decode(&served); err != nil {
		t.Fatal(err)
	}
	if served.Cluster == nil {
		t.Fatal("/stats of a cluster engine has no cluster section")
	}
	after := *served.Cluster
	reads, legs, hedged := after.Reads-before.Reads, after.ReadLegs-before.ReadLegs, after.HedgedReads-before.HedgedReads
	if reads != gets {
		t.Errorf("reads = %d after %d Gets", reads, gets)
	}
	// A hedge fires only when a replica takes longer than 25ms to answer;
	// on a loaded machine that may happen, and is then counted as such.
	if legs != 2*gets+hedged {
		t.Errorf("read_legs = %d for %d Gets with %d hedged, want R=2 per Get plus the hedges", legs, gets, hedged)
	}
	if direct, err := eng.Stats(ctx); err != nil || direct.Cluster.ReadLegs != after.ReadLegs {
		t.Errorf("Engine.Stats read_legs = %+v, %v; /stats served %d", direct.Cluster, err, after.ReadLegs)
	}
}
