package kv

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
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
	if st.Backend != "store" || st.Shards != 2 {
		t.Errorf("stats = %s/%d shards, want store/2", st.Backend, st.Shards)
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
