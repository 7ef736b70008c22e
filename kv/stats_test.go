package kv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"reflect"
	"testing"
	"time"
)

// TestWithStatsHandler: the optional HTTP endpoint serves the same Stats
// shape Engine.Stats returns, as JSON.
func TestWithStatsHandler(t *testing.T) {
	eng, err := Open(t.TempDir(),
		WithShards(2),
		WithStatsHandler("127.0.0.1:0"),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	fillKeys(t, eng, 100)

	addr := eng.(*localEngine).statsListenAddr()
	if addr == "" {
		t.Fatal("stats listener has no address")
	}
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get(fmt.Sprintf("http://%s/stats", addr))
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
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Backend != "local" || st.Shards != 2 {
		t.Errorf("stats = %s/%d shards, want local/2", st.Backend, st.Shards)
	}
	if len(st.PerShard) != 2 {
		t.Errorf("per-shard stats missing: %+v", st.PerShard)
	}

	// The endpoint dies with the engine.
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := client.Get(fmt.Sprintf("http://%s/stats", addr)); err == nil {
		t.Error("stats endpoint still serving after engine close")
	}
}

// carried is a slice of the engine counters Stats reports, compared whole
// across backends.
type carried struct {
	BytesFlushed, BytesCompacted    uint64
	BlockCacheHits, FilterNegatives uint64
	CompactionPicks                 map[string]uint64
	WriteStallNanos                 int64
}

func carriedOf(st Stats) carried {
	return carried{st.BytesFlushed, st.BytesCompacted, st.BlockCacheHits, st.FilterNegatives, st.CompactionPicks, st.WriteStallNanos}
}

func (c *carried) add(o carried) {
	c.BytesFlushed += o.BytesFlushed
	c.BytesCompacted += o.BytesCompacted
	c.BlockCacheHits += o.BlockCacheHits
	c.FilterNegatives += o.FilterNegatives
	c.WriteStallNanos += o.WriteStallNanos
	for name, n := range o.CompactionPicks {
		if c.CompactionPicks == nil {
			c.CompactionPicks = make(map[string]uint64)
		}
		c.CompactionPicks[name] += n
	}
}

// TestRemoteAndClusterStatsCarryEveryCounter: kv.Dial reports the served
// engine's counters, not a subset, and DialCluster their sum over its
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

	var sum carried
	for i, eng := range nodes {
		st, err := eng.Stats(ctx)
		if err != nil {
			t.Fatal(err)
		}
		c := carriedOf(st)
		if c.BytesFlushed == 0 || c.BytesCompacted == 0 || c.BlockCacheHits == 0 || c.FilterNegatives == 0 || len(c.CompactionPicks) == 0 {
			t.Fatalf("node %d: set-up left a counter at zero: %+v", i, c)
		}
		if i == 0 && !reflect.DeepEqual(carriedOf(rst), c) {
			t.Errorf("remote Stats = %+v, served engine = %+v", carriedOf(rst), c)
		}
		sum.add(c)
	}
	if !reflect.DeepEqual(carriedOf(cst), sum) {
		t.Errorf("cluster Stats = %+v, sum over nodes = %+v", carriedOf(cst), sum)
	}
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
