package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/kverr"
	"repro/internal/kvnet"
	"repro/internal/lsm"
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
	if _, err := decodeHintBatch([]byte{hintFormat, 0x05, 0x01}); !errors.Is(err, kverr.ErrCorrupt) {
		t.Errorf("truncated hint batch decoded: %v", err)
	}
	if _, err := decodeHintBatch(encodeHintBatch(ops)[1:]); !errors.Is(err, kverr.ErrCorrupt) {
		t.Errorf("hint batch without its format byte decoded: %v", err)
	}
}

// stampReadCounter is a node's engine that counts one-key scans: the reads
// of a stored stamp that a versioned write makes when its stamp is not
// above the node's stamp floor.
type stampReadCounter struct {
	*lsm.DB
	reads atomic.Int64
}

func (e *stampReadCounter) RangeContext(ctx context.Context, start, end []byte, fn func(key, value []byte) error) error {
	if len(end) == len(start)+1 && bytes.HasPrefix(end, start) && end[len(start)] == 0 {
		e.reads.Add(1)
	}
	return e.DB.RangeContext(ctx, start, end, fn)
}

// TestParkedHintKeepsStampFloor: a hint is parked with a plain put, which
// raises the holder's stamp floor to the stamp of any value that reads as a
// record. A hint must not read as one — for one hinted key its bytes would
// be a stamp far above any clock's — so a fresh versioned write to the
// holder still skips reading what is stored.
func TestParkedHintKeepsStampFloor(t *testing.T) {
	ctx := context.Background()
	var engines []*stampReadCounter
	var addrs []string
	for i := 0; i < 3; i++ {
		db, err := lsm.Open(t.TempDir(), lsm.Options{})
		if err != nil {
			t.Fatal(err)
		}
		e := &stampReadCounter{DB: db}
		srv := kvnet.NewServer(e)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		t.Cleanup(func() {
			srv.Close()
			db.Close()
		})
		engines = append(engines, e)
		addrs = append(addrs, ln.Addr().String())
	}
	rt, err := DialCluster(addrs, Options{VNodes: 64, HandoffInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	holder := 0
	target := (holder + len(addrs) - 1) % len(addrs) // the holder is the first candidate
	e := engines[slices.Index(addrs, rt.ring.names[holder])]
	c, err := kvnet.Dial(rt.ring.names[holder])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	freshWriteReads := func(i int) bool {
		t.Helper()
		rec := Record{Version: rt.clock.Next(), Value: []byte("fresh")}
		before := e.reads.Load()
		if n, err := c.WriteVersioned(ctx, []kvnet.BatchOp{{Key: []byte(fmt.Sprintf("fresh-%d", i)), Value: rec.Encode()}}); err != nil || n != 1 {
			t.Fatalf("fresh write %d applied %d puts, %v", i, n, err)
		}
		return e.reads.Load() != before
	}
	// The holder scans for its floor in the background; until then every
	// write reads.
	for i, deadline := 0, time.Now().Add(10*time.Second); freshWriteReads(i); i++ {
		if time.Now().After(deadline) {
			t.Fatal("fresh writes never stopped reading their stored stamp")
		}
		time.Sleep(time.Millisecond)
	}
	hinted := []kvnet.BatchOp{{Key: []byte("user0123456789abcdef"), Value: Record{Version: rt.clock.Next(), Value: []byte("v")}.Encode()}}
	if _, ok := kvnet.RecordStamp(encodeHintBatch(hinted)); ok {
		t.Error("a one-op hint batch reads as a record")
	}
	key := hintKey(rt.ring.names[target], rt.clock.Next(), rt.token, rt.hintSeq.Add(1))
	if !rt.parkEncoded(target, key, encodeHintBatch(hinted)) {
		t.Fatal("no holder took the hint")
	}
	if _, err := c.Get(ctx, key); err != nil {
		t.Fatalf("the hint is not on the holder: %v", err)
	}
	if freshWriteReads(-1) {
		t.Error("a fresh versioned write read its stored stamp after a hint was parked on the node")
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
	// The Put returned on W acks; a third copy still in flight could answer
	// the quorum read below beside the planted stale one. Wait for it.
	for _, addr := range rt.ReplicaNodes(key) {
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
			if st, err := nodeState(t, addr); err == nil && string(st[string(key)].Value) == "new" {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("replica %s never received the write", addr)
			}
		}
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
	entries := rangeAll(t, rt, []byte("s:"), []byte("s;"))
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

// gatedLink is a replica's network link with a gate in it: a proxy in
// front of the replica's server that forwards frames both ways, so a test
// decides which replica has seen which write instead of racing for it.
// holdWrites(n) parks the next n write requests — a leg's batch, a repair,
// a replayed or parked hint — in the link until releaseWrites, and
// blockReads parks every Get; each is delivered late, after whatever the
// test sent meanwhile, as a slow network would deliver it. Pings pass, so
// a gated replica stays "up" to the failure detector — blackholed but not
// demoted.
type gatedLink struct {
	server string // the replica's own address

	mu      sync.Mutex
	toHold  int
	open    chan struct{} // closed by releaseWrites
	noReads chan struct{} // non-nil while reads are blocked; closed to unblock
	// caught gets one token per write parked, so a test can wait until the
	// write it means to hold back is the one in the gate.
	caught chan struct{}
}

func (g *gatedLink) holdWrites(n int) {
	g.mu.Lock()
	g.toHold, g.open = n, make(chan struct{})
	g.mu.Unlock()
}

func (g *gatedLink) releaseWrites() {
	g.mu.Lock()
	g.toHold = 0
	if g.open != nil {
		close(g.open)
		g.open = nil
	}
	g.mu.Unlock()
}

func (g *gatedLink) blockReads() (unblock func()) {
	ch := make(chan struct{})
	g.mu.Lock()
	g.noReads = ch
	g.mu.Unlock()
	return func() {
		g.mu.Lock()
		g.noReads = nil
		g.mu.Unlock()
		close(ch)
	}
}

// gateFor returns what a request with op byte op waits for before it goes
// on to the server: nil for one that passes at once.
func (g *gatedLink) gateFor(op kvnet.Op) chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	switch op {
	case kvnet.OpPut, kvnet.OpWrite, kvnet.OpVersionedWrite:
		if g.toHold == 0 {
			return nil
		}
		g.toHold--
		g.caught <- struct{}{}
		return g.open
	case kvnet.OpGet:
		return g.noReads
	}
	return nil
}

// serve proxies the connections ln accepts to the server until ln closes.
func (g *gatedLink) serve(ln net.Listener) {
	for {
		client, err := ln.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", g.server)
		if err != nil {
			client.Close()
			continue
		}
		go func() {
			io.Copy(client, server) // responses pass ungated
			client.Close()
		}()
		go g.forward(client, server)
	}
}

// forward copies client's request frames to server, each whole, parking
// the ones the gate holds in a goroutine that sends them when it opens.
func (g *gatedLink) forward(client, server net.Conn) {
	defer server.Close()
	var wmu sync.Mutex
	send := func(frame []byte) {
		wmu.Lock()
		server.Write(frame)
		wmu.Unlock()
	}
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(client, hdr[:]); err != nil {
			return
		}
		frame := make([]byte, 8+binary.LittleEndian.Uint32(hdr[:4]))
		copy(frame, hdr[:])
		if _, err := io.ReadFull(client, frame[8:]); err != nil || len(frame) == 8 {
			return
		}
		if gate := g.gateFor(kvnet.Op(frame[8])); gate != nil {
			go func() {
				<-gate
				send(frame)
			}()
			continue
		}
		send(frame)
	}
}

// gatedCluster is three replicas behind gated links and one router, with
// a direct client to each replica for looking at what it holds.
type gatedCluster struct {
	t      *testing.T
	rt     *Router
	gates  map[string]*gatedLink
	direct map[string]*kvnet.Client
}

func startGatedCluster(t *testing.T, opts Options) *gatedCluster {
	t.Helper()
	gc := &gatedCluster{t: t, gates: map[string]*gatedLink{}, direct: map[string]*kvnet.Client{}}
	var addrs []string
	for i := 0; i < 3; i++ {
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
		gate := &gatedLink{server: ln.Addr().String(), caught: make(chan struct{}, 16)}
		gateLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go gate.serve(gateLn)
		c, err := kvnet.Dial(gate.server)
		if err != nil {
			t.Fatal(err)
		}
		addr := gateLn.Addr().String()
		t.Cleanup(func() {
			gate.releaseWrites()
			gateLn.Close()
			c.Close()
			srv.Close()
			db.Close()
		})
		gc.gates[addr], gc.direct[addr] = gate, c
		addrs = append(addrs, addr)
	}
	rt, err := DialCluster(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	gc.rt = rt
	return gc
}

// stored returns the record replica addr holds for key (Version 0: none).
func (gc *gatedCluster) stored(addr string, key []byte) Record {
	gc.t.Helper()
	raw, err := gc.direct[addr].Get(context.Background(), key)
	if errors.Is(err, kverr.ErrNotFound) {
		return Record{}
	}
	if err != nil {
		gc.t.Fatalf("direct get on %s: %v", addr, err)
	}
	rec, err := decodeRecord(raw)
	if err != nil {
		gc.t.Fatal(err)
	}
	return rec
}

// settle waits until every replica of key holds value (or, for a nil
// value, a tombstone): the stragglers of earlier writes have landed.
func (gc *gatedCluster) settle(key, value []byte) {
	gc.t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for _, addr := range gc.rt.ReplicaNodes(key) {
		for {
			rec := gc.stored(addr, key)
			if rec.Version != 0 && rec.Tombstone == (value == nil) && bytes.Equal(rec.Value, value) {
				break
			}
			if time.Now().After(deadline) {
				gc.t.Fatalf("replica %s never settled on %q for %s (holds %+v)", addr, value, key, rec)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// awaitCaught waits for the gate on addr to have parked a write.
func (gc *gatedCluster) awaitCaught(addr string) {
	gc.t.Helper()
	select {
	case <-gc.gates[addr].caught:
	case <-time.After(10 * time.Second):
		gc.t.Fatalf("no write reached the gate on %s", addr)
	}
}

// readFrom makes the router's next read start its R-subset at the given
// offset into the key's replica set.
func (gc *gatedCluster) readFrom(offset int) {
	gc.t.Helper()
	for seq := gc.rt.readSeq.Load(); ; seq++ {
		if rotation(seq+1, 3) == offset {
			gc.rt.readSeq.Store(seq)
			return
		}
	}
}

// semanticsOptions keep timeouts far from anything a gated test waits on:
// nothing here may be decided by a deadline.
func semanticsOptions() Options {
	return Options{RequestTimeout: 20 * time.Second, RetryBackoff: Backoff{Base: 2 * time.Second, Max: 2 * time.Second, Jitter: -1}}
}

// TestAckedWriteVisibleToEveryReadSubset is docs/cluster.md's first promise,
// checked where R-of-N could break it: a write acknowledged at W=2 while
// the third replica has not applied it is returned by the very next Get,
// whichever two replicas that Get asks — and when the lagging replica is
// one of them, it is repaired before the Get answers. The same holds for
// a delete: the replica that still holds the live value must not bring it
// back, in the answer or through the repair.
func TestAckedWriteVisibleToEveryReadSubset(t *testing.T) {
	gc := startGatedCluster(t, semanticsOptions())
	ctx := context.Background()
	for lagging := 0; lagging < 3; lagging++ {
		for offset := 0; offset < 3; offset++ {
			for _, del := range []bool{false, true} {
				key := []byte(fmt.Sprintf("acked-%d-%d-%v", lagging, offset, del))
				old, want := []byte("old"), []byte(fmt.Sprintf("new-%d-%d", lagging, offset))
				if err := gc.rt.Put(ctx, key, old); err != nil {
					t.Fatal(err)
				}
				gc.settle(key, old)
				replicas := gc.rt.ReplicaNodes(key)
				lag := replicas[lagging]
				gc.gates[lag].holdWrites(1)
				var err error
				if del {
					err, want = gc.rt.Delete(ctx, key), nil
				} else {
					err = gc.rt.Put(ctx, key, want)
				}
				if err != nil {
					t.Fatalf("write with %s held back: %v", lag, err)
				}
				gc.awaitCaught(lag) // the lagging replica's share is the write in the gate
				if rec := gc.stored(lag, key); !bytes.Equal(rec.Value, old) {
					t.Fatalf("held replica already holds %+v", rec)
				}

				repairsBefore := gc.rt.Metrics().ReadRepairs
				gc.readFrom(offset)
				got, err := gc.rt.Get(ctx, key)
				if del {
					if !errors.Is(err, kverr.ErrNotFound) {
						t.Fatalf("lagging=%d offset=%d: Get after acked delete = %q, %v", lagging, offset, got, err)
					}
				} else if err != nil || !bytes.Equal(got, want) {
					t.Fatalf("lagging=%d offset=%d: Get after acked put = %q, %v; want %q", lagging, offset, got, err, want)
				}
				// The subset is replicas offset and offset+1: if the lagging
				// one is in it, the read found it stale and repaired it first.
				if asked := lagging == offset || lagging == (offset+1)%3; asked {
					rec := gc.stored(lag, key)
					if rec.Tombstone != del || !bytes.Equal(rec.Value, want) {
						t.Fatalf("lagging=%d offset=%d: read answered before repairing %s (holds %+v)", lagging, offset, lag, rec)
					}
					if gc.rt.Metrics().ReadRepairs != repairsBefore+1 {
						t.Errorf("lagging=%d offset=%d: repair not counted", lagging, offset)
					}
				}
				gc.gates[lag].releaseWrites()
				gc.settle(key, want)
			}
		}
	}
}

// TestReadNeverGoesBackwards: a write still in flight — on one replica,
// not acknowledged — may or may not be seen, but once a client has read
// it, no later read returns the older value. That needs the repair to
// finish before the read answers: with N=3 R=2 the next read may ask
// exactly the two replicas the write has not reached.
func TestReadNeverGoesBackwards(t *testing.T) {
	gc := startGatedCluster(t, semanticsOptions())
	ctx := context.Background()
	key, v1, v2 := []byte("monotonic"), []byte("v1"), []byte("v2")
	if err := gc.rt.Put(ctx, key, v1); err != nil {
		t.Fatal(err)
	}
	gc.settle(key, v1)
	replicas := gc.rt.ReplicaNodes(key)
	gc.gates[replicas[1]].holdWrites(1)
	gc.gates[replicas[2]].holdWrites(1)
	putDone := make(chan error, 1)
	go func() { putDone <- gc.rt.Put(ctx, key, v2) }()
	gc.awaitCaught(replicas[1])
	gc.awaitCaught(replicas[2])
	for deadline := time.Now().Add(10 * time.Second); !bytes.Equal(gc.stored(replicas[0], key).Value, v2); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("in-flight write never reached its first replica")
		}
	}

	// Replicas 1 and 2 still hold v1: this read may return either value.
	gc.readFrom(1)
	if got, err := gc.rt.Get(ctx, key); err != nil || !bytes.Equal(got, v1) {
		t.Fatalf("read of the two untouched replicas = %q, %v", got, err)
	}
	// This one meets the in-flight write on replica 0 ...
	gc.readFrom(0)
	if got, err := gc.rt.Get(ctx, key); err != nil || !bytes.Equal(got, v2) {
		t.Fatalf("read that met the in-flight write = %q, %v", got, err)
	}
	// ... and from here on v1 is gone for good, whichever replicas answer.
	for round := 0; round < 3; round++ {
		for offset := 0; offset < 3; offset++ {
			gc.readFrom(offset)
			if got, err := gc.rt.Get(ctx, key); err != nil || !bytes.Equal(got, v2) {
				t.Fatalf("round %d offset %d: read %q, %v after v2 had been returned", round, offset, got, err)
			}
		}
	}
	select {
	case err := <-putDone:
		t.Fatalf("Put returned (%v) with two of its three replicas held back", err)
	default:
	}
	gc.gates[replicas[1]].releaseWrites()
	gc.gates[replicas[2]].releaseWrites()
	if err := <-putDone; err != nil {
		t.Fatalf("Put after release: %v", err)
	}
}

// TestReplicaWritesCommute: a node keeps the record with the highest stamp
// it is sent, whatever order the sends arrive in. One replica gets v2, the
// newer record, before v1, and then must still hold v2 — with v1 arriving
// late as a write leg, as a read repair and as a hint replay. A node that
// applied the late v1 would hold a record older than an acknowledged write,
// and an R-read that asked it and a lagging replica would go back in time.
func TestReplicaWritesCommute(t *testing.T) {
	ctx := context.Background()
	for _, late := range []string{"leg", "repair", "replay"} {
		t.Run(late, func(t *testing.T) {
			gc := startGatedCluster(t, semanticsOptions())
			key := []byte("commute-" + late)
			replicas := gc.rt.ReplicaNodes(key)
			node := replicas[0]
			v1 := Record{Version: gc.rt.clock.Next(), Value: []byte("v1")}
			// Every late writer is held on its way to node, delivered after
			// v2 has landed there, and waited for before node is looked at.
			gc.gates[node].holdWrites(1)
			var delivered func()
			switch late {
			case "leg":
				if err := gc.rt.Put(ctx, key, v1.Value); err != nil {
					t.Fatal(err)
				}
				gc.awaitCaught(node)
				delivered = gc.rt.bg.Wait
			case "repair":
				// v1 is on the other two replicas only: a read that asks node
				// and one of them repairs node with v1.
				for _, addr := range replicas[1:] {
					if err := gc.direct[addr].Put(ctx, key, v1.Encode()); err != nil {
						t.Fatal(err)
					}
				}
				gc.readFrom(0)
				read := make(chan error, 1)
				go func() {
					_, err := gc.rt.Get(ctx, key)
					read <- err
				}()
				gc.awaitCaught(node)
				delivered = func() {
					if err := <-read; err != nil {
						t.Errorf("read that repaired node: %v", err)
					}
					gc.rt.bg.Wait()
				}
			case "replay":
				target := gc.rt.ring.nodes[node]
				hint := hintKey(node, gc.rt.clock.Next(), gc.rt.token, gc.rt.hintSeq.Add(1))
				if !gc.rt.parkEncoded(target, hint, encodeHintBatch([]kvnet.BatchOp{{Key: key, Value: v1.Encode()}})) {
					t.Fatal("no holder took the hint")
				}
				replayed := make(chan error, 1)
				go func() { replayed <- gc.rt.Handoff(ctx) }()
				gc.awaitCaught(node)
				delivered = func() {
					if err := <-replayed; err != nil {
						t.Errorf("handoff: %v", err)
					}
				}
			}
			// v2, a delete, reaches node while v1 is still on its way.
			if err := gc.rt.Delete(ctx, key); err != nil {
				t.Fatal(err)
			}
			for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
				if rec := gc.stored(node, key); rec.Tombstone {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("the delete never reached %s", node)
				}
			}
			gc.gates[node].releaseWrites()
			delivered()
			if rec := gc.stored(node, key); !rec.Tombstone {
				t.Fatalf("late %s of v1 overwrote the newer delete on %s: it holds %+v", late, node, rec)
			}
		})
	}
}

// TestSilentReplicaCostsOneHedgeDelay: a replica that stops answering
// reads but still answers pings is not demoted, so reads keep choosing
// it. Such a read must cost the hedge delay — one more replica is asked
// and the two that answer decide — not RequestTimeout.
func TestSilentReplicaCostsOneHedgeDelay(t *testing.T) {
	const hedgeDelay = 30 * time.Millisecond
	gc := startGatedCluster(t, Options{
		RequestTimeout: 20 * time.Second,
		PingInterval:   10 * time.Millisecond,
		RetryBackoff:   Backoff{Base: hedgeDelay, Max: hedgeDelay, Jitter: -1},
	})
	ctx := context.Background()
	key, value := []byte("hedged"), []byte("value")
	if err := gc.rt.Put(ctx, key, value); err != nil {
		t.Fatal(err)
	}
	gc.settle(key, value)
	unblock := gc.gates[gc.rt.ReplicaNodes(key)[0]].blockReads()
	defer unblock() // lets the silent leg finish so Close need not wait it out

	for _, offset := range []int{0, 2} { // both subsets that include replica 0
		before := gc.rt.Metrics()
		gc.readFrom(offset)
		start := time.Now()
		got, err := gc.rt.Get(ctx, key)
		took := time.Since(start)
		if err != nil || !bytes.Equal(got, value) {
			t.Fatalf("offset %d: Get with a silent replica = %q, %v", offset, got, err)
		}
		if took < hedgeDelay || took > 5*time.Second {
			t.Errorf("offset %d: Get took %v, want about the %v hedge delay", offset, took, hedgeDelay)
		}
		after := gc.rt.Metrics()
		if legs, hedged := after.ReadLegs-before.ReadLegs, after.HedgedReads-before.HedgedReads; legs != 3 || hedged != 1 {
			t.Errorf("offset %d: read used %d legs, %d hedged; want 3 and 1", offset, legs, hedged)
		}
	}
	// The one subset without the silent replica pays nothing.
	before := gc.rt.Metrics()
	gc.readFrom(1)
	if got, err := gc.rt.Get(ctx, key); err != nil || !bytes.Equal(got, value) {
		t.Fatalf("Get avoiding the silent replica = %q, %v", got, err)
	}
	if after := gc.rt.Metrics(); after.ReadLegs-before.ReadLegs != 2 || after.HedgedReads != before.HedgedReads {
		t.Errorf("read avoiding the silent replica: %d legs, %d hedged", after.ReadLegs-before.ReadLegs, after.HedgedReads-before.HedgedReads)
	}
	if down := gc.rt.DownNodes(); len(down) != 0 {
		t.Errorf("silent replica was demoted (%v): the test no longer covers the not-yet-demoted case", down)
	}
}

// TestRotationSpreadsReads: every offset is used equally often, and a
// caller whose reads of one key are a fixed number of reads apart — a
// loop over a fixed key set — still sees that key under every offset.
func TestRotationSpreadsReads(t *testing.T) {
	var counts [3]int
	for seq := uint64(1); seq <= 30000; seq++ {
		counts[rotation(seq, 3)]++
	}
	for offset, n := range counts {
		if n < 9700 || n > 10300 {
			t.Errorf("offset %d chosen %d times in 30000 reads, want about 10000", offset, n)
		}
	}
	for stride := uint64(1); stride <= 3000; stride++ {
		seen := map[int]bool{}
		for i := uint64(0); i < 40; i++ {
			seen[rotation(7+i*stride, 3)] = true
		}
		if len(seen) != 3 {
			t.Errorf("reads %d apart reached only offsets %v in 40 tries", stride, seen)
		}
	}
}
