package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/kverr"
	"repro/internal/kvnet"
)

func TestRecordRoundTrip(t *testing.T) {
	cases := []Record{
		{Version: 1, Value: []byte("v")},
		{Version: 1<<63 | 42, Value: nil},
		{Version: 7, Tombstone: true},
		{Version: 9, Value: bytes.Repeat([]byte{0xff}, 1000)},
	}
	for _, rec := range cases {
		got, err := decodeRecord(rec.Encode())
		if err != nil {
			t.Fatalf("decode(%+v): %v", rec, err)
		}
		if got.Version != rec.Version || got.Tombstone != rec.Tombstone || !bytes.Equal(got.Value, rec.Value) {
			t.Errorf("round trip %+v -> %+v", rec, got)
		}
	}
	for _, bad := range [][]byte{nil, {0x01}, {0x02, 0, 0, 0, 0, 0, 0, 0, 0, 1}, bytes.Repeat([]byte{0}, 9)} {
		if _, err := decodeRecord(bad); !errors.Is(err, kverr.ErrCorrupt) {
			t.Errorf("decode(%x) = %v, want ErrCorrupt", bad, err)
		}
	}
}

func TestHintBatchRoundTrip(t *testing.T) {
	ops := []kvnet.BatchOp{
		{Key: []byte("a"), Value: Record{Version: 1, Value: []byte("x")}.Encode()},
		{Key: []byte("b/long/key"), Value: Record{Version: 2, Tombstone: true}.Encode()},
	}
	got, err := decodeHintBatch(encodeHintBatch(ops))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("round trip lost ops: %d != %d", len(got), len(ops))
	}
	for i := range ops {
		if !bytes.Equal(got[i].Key, ops[i].Key) || !bytes.Equal(got[i].Value, ops[i].Value) {
			t.Errorf("op %d mangled", i)
		}
	}
	if _, err := decodeHintBatch([]byte{0x05, 0x01}); !errors.Is(err, kverr.ErrCorrupt) {
		t.Errorf("truncated hint batch decoded: %v", err)
	}
}

func TestHintKeyTarget(t *testing.T) {
	key := hintKey("10.0.0.1:4242", 99, 7, 3)
	if !bytes.HasPrefix(key, []byte(hintPrefix)) {
		t.Fatal("hint key outside reserved prefix")
	}
	if got := hintTarget(key); got != "10.0.0.1:4242" {
		t.Errorf("hintTarget = %q", got)
	}
	if got := hintTarget([]byte("user-key")); got != "" {
		t.Errorf("hintTarget on user key = %q", got)
	}
}

func TestHLCMonotonic(t *testing.T) {
	var c hlc
	prev := c.Next()
	for i := 0; i < 10000; i++ {
		next := c.Next()
		if next <= prev {
			t.Fatalf("stamp regressed: %d after %d", next, prev)
		}
		prev = next
	}
	c.Observe(prev + 1000)
	if got := c.Next(); got <= prev+1000 {
		t.Errorf("Next after Observe = %d, want > %d", got, prev+1000)
	}
}

func TestOptionsValidation(t *testing.T) {
	addrs := []string{"127.0.0.1:1"}
	bad := []Options{
		{ReplicationFactor: 3, WriteQuorum: 1, ReadQuorum: 1},  // no overlap
		{ReplicationFactor: 2, WriteQuorum: 3, ReadQuorum: 2},  // W > N
		{ReplicationFactor: -1, WriteQuorum: 1, ReadQuorum: 1}, // nonsense
	}
	for _, opts := range bad {
		if _, err := DialCluster(addrs, opts); !errors.Is(err, kverr.ErrConfig) {
			t.Errorf("DialCluster(%+v) = %v, want ErrConfig", opts, err)
		}
	}
}

func TestRouterRejectsReservedKeys(t *testing.T) {
	rt := startCluster(t, 1)
	ctx := context.Background()
	key := append([]byte(hintPrefix), "oops"...)
	if err := rt.Put(ctx, key, []byte("v")); !errors.Is(err, kverr.ErrConfig) {
		t.Errorf("Put on reserved key = %v, want ErrConfig", err)
	}
	if _, err := rt.Get(ctx, key); !errors.Is(err, kverr.ErrConfig) {
		t.Errorf("Get on reserved key = %v, want ErrConfig", err)
	}
	if err := rt.Delete(ctx, key); !errors.Is(err, kverr.ErrConfig) {
		t.Errorf("Delete on reserved key = %v, want ErrConfig", err)
	}
	if err := rt.Write(ctx, []kvnet.BatchOp{{Key: key, Value: []byte("v")}}); !errors.Is(err, kverr.ErrConfig) {
		t.Errorf("Write on reserved key = %v, want ErrConfig", err)
	}
}

// TestQuorumSurvivesNodeDown: with N=3, W=R=2 a single dead node must
// not fail writes or reads, and its missed writes park as hints.
func TestQuorumSurvivesNodeDown(t *testing.T) {
	nodes, rt := startChaosCluster(t, 3, chaosOptions())
	ctx := context.Background()

	nodes[1].Kill()
	for i := 0; i < 50; i++ {
		key := []byte(fmt.Sprintf("down-%03d", i))
		if err := rt.Put(ctx, key, []byte(fmt.Sprint(i))); err != nil {
			t.Fatalf("Put with node down: %v", err)
		}
		v, err := rt.Get(ctx, key)
		if err != nil || string(v) != fmt.Sprint(i) {
			t.Fatalf("Get with node down = %q, %v", v, err)
		}
	}
	if err := rt.Delete(ctx, []byte("down-000")); err != nil {
		t.Fatalf("Delete with node down: %v", err)
	}
	if _, err := rt.Get(ctx, []byte("down-000")); !errors.Is(err, kverr.ErrNotFound) {
		t.Fatalf("deleted key with node down: %v", err)
	}

	// Wait for hints to park (they are written in the background).
	deadline := time.Now().Add(5 * time.Second)
	for rt.Metrics().HintsParked == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no hints parked for the dead replica")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Recovery: the node comes back, handoff replays its hints, and its
	// local state converges with the rest of the cluster.
	nodes[1].Restart()
	deadline = time.Now().Add(15 * time.Second)
	for {
		if len(rt.DownNodes()) == 0 {
			if err := rt.Handoff(ctx); err == nil {
				if pending, err := rt.PendingHints(ctx); err == nil && pending == 0 {
					if ok, _ := replicasConverged(t, nodes); ok {
						break
					}
				}
			}
		}
		if time.Now().After(deadline) {
			pending, _ := rt.PendingHints(ctx)
			_, diff := replicasConverged(t, nodes)
			t.Fatalf("recovery never converged: %d hints pending, %s", pending, diff)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if m := rt.Metrics(); m.HintsReplayed == 0 {
		t.Errorf("recovery converged without replaying hints: %+v", m)
	}
}

// TestReadRepair: a replica holding a stale version is rewritten with
// the quorum winner after a read observes the divergence.
func TestReadRepair(t *testing.T) {
	nodes, rt := startChaosCluster(t, 3, chaosOptions())
	ctx := context.Background()
	key := []byte("repair-me")

	if err := rt.Put(ctx, key, []byte("new")); err != nil {
		t.Fatal(err)
	}
	// Corrupt one replica with an older version, bypassing the router.
	stale := rt.ReplicaNodes(key)[0]
	c, err := kvnet.Dial(stale)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Put(ctx, key, Record{Version: 1, Value: []byte("old")}.Encode()); err != nil {
		t.Fatal(err)
	}

	// A quorum read resolves to the newest version...
	v, err := rt.Get(ctx, key)
	if err != nil || string(v) != "new" {
		t.Fatalf("Get over divergent replicas = %q, %v", v, err)
	}
	// ...and repairs the stale replica in the background.
	deadline := time.Now().Add(5 * time.Second)
	for {
		raw, err := c.Get(ctx, key)
		if err == nil {
			rec, err := decodeRecord(raw)
			if err != nil {
				t.Fatal(err)
			}
			if string(rec.Value) == "new" {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("stale replica never repaired")
		}
		// Reads trigger repair; keep reading.
		if _, err := rt.Get(ctx, key); err != nil {
			t.Fatal(err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The counter increments just after the repair write lands; give it a
	// beat.
	for rt.Metrics().ReadRepairs == 0 {
		if time.Now().After(deadline) {
			t.Errorf("repair happened but was not counted: %+v", rt.Metrics())
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	_ = nodes
}

// TestSingleNodeClusterDegenerates: a one-node "cluster" clamps its
// quorums and behaves like a plain client.
func TestSingleNodeClusterQuorumClamp(t *testing.T) {
	rt := startCluster(t, 1)
	ctx := context.Background()
	if err := rt.Put(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := rt.Get(ctx, []byte("k"))
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := rt.Delete(ctx, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Get(ctx, []byte("k")); !errors.Is(err, kverr.ErrNotFound) {
		t.Fatalf("deleted key = %v", err)
	}
}

// TestWriteBatchReplicates: a router batch lands on every replica and
// later ops win over earlier ones for duplicate keys.
func TestWriteBatchReplicates(t *testing.T) {
	nodes, rt := startChaosCluster(t, 3, chaosOptions())
	ctx := context.Background()
	batch := []kvnet.BatchOp{
		{Key: []byte("b1"), Value: []byte("v1")},
		{Key: []byte("b2"), Value: []byte("v2")},
		{Key: []byte("b1"), Value: []byte("v1-final")},
		{Key: []byte("b3"), Delete: true},
	}
	if err := rt.Write(ctx, batch); err != nil {
		t.Fatal(err)
	}
	if v, err := rt.Get(ctx, []byte("b1")); err != nil || string(v) != "v1-final" {
		t.Fatalf("b1 = %q, %v", v, err)
	}
	if v, err := rt.Get(ctx, []byte("b2")); err != nil || string(v) != "v2" {
		t.Fatalf("b2 = %q, %v", v, err)
	}
	if _, err := rt.Get(ctx, []byte("b3")); !errors.Is(err, kverr.ErrNotFound) {
		t.Fatalf("b3 = %v", err)
	}
	// Every node holds the batch (RF=3 on a 3-node ring), and they agree.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ok, _ := replicasConverged(t, nodes); ok {
			break
		}
		if time.Now().After(deadline) {
			_, diff := replicasConverged(t, nodes)
			t.Fatalf("batch replicas never converged: %s", diff)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestScanSurvivesNodeDown: merged scans tolerate N−R unreachable nodes
// and still return the complete, newest-version view.
func TestScanSurvivesNodeDown(t *testing.T) {
	nodes, rt := startChaosCluster(t, 3, chaosOptions())
	ctx := context.Background()
	for i := 0; i < 120; i++ {
		if err := rt.Put(ctx, []byte(fmt.Sprintf("s:%04d", i)), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := rt.Delete(ctx, []byte("s:0007")); err != nil {
		t.Fatal(err)
	}
	nodes[2].Kill()
	// Wait for the detector so the scan doesn't pay the dead node's
	// timeout, then scan.
	deadline := time.Now().Add(5 * time.Second)
	for len(rt.DownNodes()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("detector never noticed the kill")
		}
		time.Sleep(10 * time.Millisecond)
	}
	entries, err := rt.Scan(ctx, []byte("s:"), 0)
	if err != nil {
		t.Fatalf("scan with node down: %v", err)
	}
	if len(entries) != 119 {
		t.Fatalf("scan with node down returned %d entries, want 119", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if bytes.Compare(entries[i-1].Key, entries[i].Key) >= 0 {
			t.Fatal("merged scan out of order")
		}
	}
	for _, e := range entries {
		if string(e.Key) == "s:0007" {
			t.Fatal("deleted key resurfaced in scan")
		}
	}
}

// TestRouterCopiesCallerKey: Put, Get and Delete return at quorum while the
// slowest replica's request — and any hint or read repair that follows from
// it — is still to be sent. A caller that reuses one key buffer for the
// next operation must not rewrite those: 1000 Puts through one buffer at
// N=3/W=2, each followed by a Get through the same buffer, leave all three
// replicas byte-identical with every key holding its own value.
func TestRouterCopiesCallerKey(t *testing.T) {
	nodes, rt := startChaosCluster(t, 3, Options{})
	ctx := context.Background()
	const n = 1000
	key := make([]byte, 8)
	for i := 0; i < n; i++ {
		copy(key, fmt.Sprintf("k%07d", i))
		if err := rt.Put(ctx, key, []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
		if v, err := rt.Get(ctx, key); err != nil || string(v) != fmt.Sprint(i) {
			t.Fatalf("Get(%s) = %q, %v", key, v, err)
		}
	}
	rt.Close() // waits for the straggler replica writes
	if ok, why := replicasConverged(t, nodes); !ok {
		t.Fatalf("replicas differ after writes through a reused key buffer: %s", why)
	}
	state, err := nodeState(t, nodes[0].addr)
	if err != nil {
		t.Fatal(err)
	}
	if len(state) != n {
		t.Fatalf("replica holds %d keys, want %d", len(state), n)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("k%07d", i)
		if rec := state[k]; string(rec.Value) != fmt.Sprint(i) {
			t.Fatalf("replica holds %s = %q, want %d", k, rec.Value, i)
		}
	}
}
