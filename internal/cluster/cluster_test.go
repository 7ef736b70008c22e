package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/keyhash"
	"repro/internal/kvnet"
	"repro/internal/lsm"
)

func TestKeyHashShared(t *testing.T) {
	// keyhash.Placement is the ring's hash, shared with the in-process
	// shard router (internal/store): deterministic, and sensitive to every
	// byte.
	if keyhash.Placement([]byte("key-1")) != keyhash.Placement([]byte("key-1")) {
		t.Fatal("Placement not deterministic")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		seen[keyhash.Placement([]byte(fmt.Sprintf("key-%d", i)))] = true
	}
	if len(seen) != 1000 {
		t.Errorf("Placement collided on %d/1000 similar keys", 1000-len(seen))
	}
}

// TestRingPlacementPinned: a key's replica set on a fixed ring. Every
// node's data sits where the ring put it, so a change here strands keys.
func TestRingPlacementPinned(t *testing.T) {
	r := NewRing(64)
	for _, n := range []string{"node-a:7000", "node-b:7000", "node-c:7000", "node-d:7000"} {
		r.AddNode(n)
	}
	for key, want := range map[string][]string{
		"":                     {"node-c:7000", "node-a:7000", "node-b:7000"},
		"a":                    {"node-a:7000", "node-b:7000", "node-c:7000"},
		"key-1":                {"node-c:7000", "node-d:7000", "node-a:7000"},
		"foobar":               {"node-b:7000", "node-c:7000", "node-d:7000"},
		"user0000000000000001": {"node-c:7000", "node-d:7000", "node-a:7000"},
		"user00000000deadbeef": {"node-b:7000", "node-d:7000", "node-c:7000"},
	} {
		if got := r.ReplicaSet([]byte(key), 3); !slices.Equal(got, want) {
			t.Errorf("ReplicaSet(%q) = %q, want %q", key, got, want)
		}
	}
}

func TestRingLookupStable(t *testing.T) {
	r := NewRing(64)
	r.AddNode("a")
	r.AddNode("b")
	r.AddNode("c")
	for i := 0; i < 100; i++ {
		key := []byte(fmt.Sprintf("key-%d", i))
		if r.Lookup(key) != r.Lookup(key) {
			t.Fatalf("lookup not deterministic")
		}
	}
	if got := len(r.Nodes()); got != 3 {
		t.Errorf("Nodes = %d", got)
	}
	r.AddNode("a") // idempotent
	if got := len(r.Nodes()); got != 3 {
		t.Errorf("Nodes after duplicate add = %d", got)
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing(128)
	for _, n := range []string{"a", "b", "c", "d"} {
		r.AddNode(n)
	}
	counts := map[string]int{}
	const keys = 20000
	for i := 0; i < keys; i++ {
		counts[r.Lookup([]byte(fmt.Sprintf("user%08d", i)))]++
	}
	for node, c := range counts {
		share := float64(c) / keys
		if share < 0.10 || share > 0.45 {
			t.Errorf("node %s owns %.1f%% of keys; want roughly balanced", node, share*100)
		}
	}
}

func TestRingRemoveNodeRedistributesMinimally(t *testing.T) {
	r := NewRing(128)
	for _, n := range []string{"a", "b", "c", "d"} {
		r.AddNode(n)
	}
	before := map[string]string{}
	const keys = 5000
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("key-%06d", i)
		before[k] = r.Lookup([]byte(k))
	}
	r.RemoveNode("d")
	moved, fromD := 0, 0
	for k, owner := range before {
		now := r.Lookup([]byte(k))
		if owner == "d" {
			fromD++
			if now == "d" {
				t.Fatalf("removed node still owns %s", k)
			}
			continue
		}
		if now != owner {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys not owned by the removed node moved; consistent hashing should move none", moved)
	}
	if fromD == 0 {
		t.Errorf("removed node owned no keys before removal")
	}
	r.RemoveNode("d") // idempotent
}

func TestEmptyRing(t *testing.T) {
	r := NewRing(8)
	if got := r.Lookup([]byte("k")); got != "" {
		t.Errorf("Lookup on empty ring = %q", got)
	}
}

// startCluster brings up n servers and a router over them.
func startCluster(t testing.TB, n int) *Router {
	t.Helper()
	rt, err := DialCluster(startNodes(t, n), Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

// startNodes stands up n loopback servers and returns their addresses.
func startNodes(t testing.TB, n int) []string {
	t.Helper()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		db, err := lsm.Open(t.TempDir(), lsm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		srv := kvnet.NewServer(db)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() {
			srv.Close()
			db.Close()
		})
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs
}

func TestRouterCRUD(t *testing.T) {
	rt := startCluster(t, 3)
	const n = 600
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		if err := rt.Put(context.Background(), k, []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%05d", i))
		v, err := rt.Get(context.Background(), k)
		if err != nil || string(v) != fmt.Sprint(i) {
			t.Fatalf("Get(%s) = %q, %v", k, v, err)
		}
	}
	if err := rt.Delete(context.Background(), []byte("key-00042")); err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Get(context.Background(), []byte("key-00042")); err != kvnet.ErrNotFound {
		t.Errorf("deleted key Get = %v", err)
	}
	// Keys actually spread across nodes.
	stats, err := rt.StatsAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 3 {
		t.Fatalf("stats from %d nodes", len(stats))
	}
	if err := rt.FlushAll(context.Background()); err != nil {
		t.Fatal(err)
	}
	stats, err = rt.StatsAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	nodesWithData := 0
	for _, st := range stats {
		if st.Tables > 0 {
			nodesWithData++
		}
	}
	if nodesWithData != 3 {
		t.Errorf("only %d/3 nodes hold data", nodesWithData)
	}
}

func TestRouterCompactAll(t *testing.T) {
	rt := startCluster(t, 3)
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 300; i++ {
			k := []byte(fmt.Sprintf("key-%05d", i))
			if err := rt.Put(context.Background(), k, []byte(fmt.Sprintf("v%d", gen))); err != nil {
				t.Fatal(err)
			}
		}
		if err := rt.FlushAll(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	infos, err := rt.CompactAll(context.Background(), "BT(I)", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(infos) != 3 {
		t.Fatalf("compacted %d nodes", len(infos))
	}
	compactions := 0
	for _, info := range infos {
		if info.TablesBefore >= 2 {
			compactions++
			if len(info.StepStats) == 0 || info.BytesWritten == 0 {
				t.Errorf("empty compaction result: %+v", info)
			}
		}
	}
	if compactions == 0 {
		t.Errorf("no node had enough tables to compact")
	}
	stats, err := rt.StatsAll(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for node, st := range stats {
		if st.Tables > 1 {
			t.Errorf("node %s still has %d tables", node, st.Tables)
		}
	}
	// Reads still correct after cluster-wide compaction.
	v, err := rt.Get(context.Background(), []byte("key-00123"))
	if err != nil || string(v) != "v2" {
		t.Errorf("Get after compact = %q, %v", v, err)
	}
}

func TestRouterScanMergesSorted(t *testing.T) {
	rt := startCluster(t, 3)
	for i := 0; i < 200; i++ {
		if err := rt.Put(context.Background(), []byte(fmt.Sprintf("p:%04d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
		if err := rt.Put(context.Background(), []byte(fmt.Sprintf("q:%04d", i)), []byte("y")); err != nil {
			t.Fatal(err)
		}
	}
	entries := rangeAll(t, rt, []byte("p:"), []byte("p;"))
	if len(entries) != 200 {
		t.Fatalf("scan returned %d entries", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if string(entries[i-1].Key) >= string(entries[i].Key) {
			t.Fatalf("merged scan out of order")
		}
	}
	// Tombstones and parked hints (a hint key sorts before every user key)
	// never surface, not even in an open-ended scan.
	if err := rt.Delete(context.Background(), []byte("q:0000")); err != nil {
		t.Fatal(err)
	}
	c, err := rt.peers[0].Client(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(context.Background(), hintKey("elsewhere", 1, 2, 3), []byte{hintFormat, 0}); err != nil {
		t.Fatal(err)
	}
	all := rangeAll(t, rt, nil, nil)
	if len(all) != 399 {
		t.Fatalf("open-ended cluster scan = %d entries, want 399", len(all))
	}
	if string(all[0].Key) != "p:0000" || string(all[200].Key) != "q:0001" {
		t.Errorf("open-ended cluster scan starts at %q and holds %q for q:0001", all[0].Key, all[200].Key)
	}
}

// scanEntry is one entry a test collected from a merged scan.
type scanEntry struct{ Key, Value []byte }

// rangeAll collects the merged view of [start, end) in one iterator pass.
func rangeAll(t *testing.T, rt *Router, start, end []byte) []scanEntry {
	t.Helper()
	it, err := rt.NewIterator(context.Background(), start, end)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []scanEntry
	for ; it.Valid(); it.Next() {
		out = append(out, scanEntry{bytes.Clone(it.Key()), bytes.Clone(it.Value())})
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestDialClusterErrors(t *testing.T) {
	if _, err := DialCluster(nil, Options{}); err == nil {
		t.Errorf("empty cluster accepted")
	}
	if _, err := DialCluster([]string{"127.0.0.1:1"}, Options{}); err == nil {
		t.Errorf("cluster with no reachable node accepted")
	}
}

// TestDialClusterToleratesDownNode: dialing a cluster while one replica
// is down must succeed — availability under node failure is the point of
// the quorum client — with the dead node demoted so the health loop
// re-admits it when it returns.
func TestDialClusterToleratesDownNode(t *testing.T) {
	addrs := []string{"127.0.0.1:1"} // the permanently-down replica
	for i := 0; i < 2; i++ {
		db, err := lsm.Open(t.TempDir(), lsm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		srv := kvnet.NewServer(db)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		defer srv.Close()
		addrs = append(addrs, ln.Addr().String())
	}

	rt, err := DialCluster(addrs, Options{
		ReplicationFactor: 3, WriteQuorum: 2, ReadQuorum: 2,
	})
	if err != nil {
		t.Fatalf("dial with one node down: %v", err)
	}
	defer rt.Close()
	if down := rt.DownNodes(); len(down) != 1 || down[0] != "127.0.0.1:1" {
		t.Fatalf("down nodes = %v, want the unreachable one", down)
	}
	ctx := context.Background()
	if err := rt.Put(ctx, []byte("k"), []byte("v")); err != nil {
		t.Fatalf("put through degraded cluster: %v", err)
	}
	got, err := rt.Get(ctx, []byte("k"))
	if err != nil || string(got) != "v" {
		t.Fatalf("get through degraded cluster = %q, %v", got, err)
	}
}

// connTracker is a listener that keeps the connections it accepts, so a
// test can drop them from the server's side.
type connTracker struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *connTracker) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *connTracker) accepted() []net.Conn {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.conns)
}

// TestRouterRedialsReapedConnection: a router whose node connection the
// server dropped, as its idle timeout reaps a quiet one, must re-dial
// transparently instead of failing every subsequent operation.
func TestRouterRedialsReapedConnection(t *testing.T) {
	db, err := lsm.Open(t.TempDir(), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := kvnet.NewServer(db)
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := &connTracker{Listener: inner}
	go srv.Serve(ln)
	defer srv.Close()

	rt, err := DialCluster([]string{ln.Addr().String()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ctx := context.Background()
	if err := rt.Put(ctx, []byte("k"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	dropped := ln.accepted()
	if len(dropped) == 0 {
		t.Fatal("the router's connection never reached the server")
	}
	for _, c := range dropped {
		c.Close()
	}
	if err := rt.Put(ctx, []byte("k"), []byte("v2")); err != nil {
		t.Fatalf("Put after the connection was dropped = %v, want transparent redial", err)
	}
	if v, err := rt.Get(ctx, []byte("k")); err != nil || string(v) != "v2" {
		t.Fatalf("Get after redial = %q, %v", v, err)
	}
	if n := len(ln.accepted()); n <= len(dropped) {
		t.Fatalf("%d connections accepted, %d dropped: the router never re-dialed", n, len(dropped))
	}
}

// TestRouterHeldDialHoldsOnlyItsNode: a node whose re-dial hangs holds up
// neither another node's re-dial nor Close; each dial runs outside every
// lock the router shares.
func TestRouterHeldDialHoldsOnlyItsNode(t *testing.T) {
	addrs := startNodes(t, 2)
	tcp := kvnet.TCPDialer(time.Second)
	var holdA atomic.Bool
	entered, release := make(chan struct{}, 1), make(chan struct{})
	defer close(release)
	rt, err := DialCluster(addrs, Options{pingInterval: time.Hour,
		dial: func(ctx context.Context, addr string) (net.Conn, error) {
			if addr == addrs[0] && holdA.Load() {
				entered <- struct{}{}
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return tcp(ctx, addr)
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ping := func(ctx context.Context, c *kvnet.Client) error { return c.Ping(ctx) }
	for node := range rt.peers {
		c, err := rt.peers[node].Client(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	}
	holdA.Store(true)
	go rt.do(context.Background(), 0, ping)
	<-entered

	start := time.Now()
	if err := rt.do(context.Background(), 1, ping); err != nil {
		t.Fatalf("node B's re-dial while A's dial is held: %v", err)
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Fatalf("node B's re-dial took %v behind A's held dial, want < 500ms", took)
	}
	closed := make(chan struct{})
	go func() {
		rt.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(500 * time.Millisecond):
		t.Fatal("Close waited behind a held dial for 500ms")
	}
}

// TestRouterStragglerLegDialsUnderItsDeadline: a W=2 put is acknowledged
// while its third leg hangs in a re-dial. That leg runs on in the
// background and Close waits for it, so the dial must end with the leg's
// RequestTimeout-bounded attempt, not with DialTimeout or never.
func TestRouterStragglerLegDialsUnderItsDeadline(t *testing.T) {
	addrs := startNodes(t, 3)
	tcp := kvnet.TCPDialer(time.Second)
	var holdA atomic.Bool
	entered, release := make(chan struct{}, 1), make(chan struct{})
	defer close(release)
	const timeout = 500 * time.Millisecond
	rt, err := DialCluster(addrs, Options{RequestTimeout: timeout, pingInterval: time.Hour, handoffInterval: time.Hour,
		dial: func(ctx context.Context, addr string) (net.Conn, error) {
			if addr == addrs[0] && holdA.Load() {
				select {
				case entered <- struct{}{}:
				default:
				}
				select {
				case <-release:
				case <-ctx.Done():
					return nil, ctx.Err()
				}
			}
			return tcp(ctx, addr)
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() }) // after the deferred release of a held dial
	c, err := rt.peers[0].Client(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	c.Close()
	holdA.Store(true)
	if err := rt.Put(context.Background(), []byte("k"), []byte("v")); err != nil {
		t.Fatalf("W=2 put with one leg's dial held: %v", err)
	}
	<-entered
	closed := make(chan struct{})
	go func() {
		rt.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(timeout + 500*time.Millisecond):
		t.Fatalf("Close waited more than RequestTimeout+500ms (%v) behind a straggler leg's dial", timeout+500*time.Millisecond)
	}
}
