package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/kvnet"
	"repro/internal/lsm"
	"repro/internal/model"
)

// testNode is a restartable in-process cluster node: an lsm engine
// served over kvnet on a fixed address. Kill tears down the server and
// engine (connections die mid-request, exactly like a crashed process);
// Restart reopens the same directory and rebinds the same address.
type testNode struct {
	t    *testing.T
	dir  string
	addr string

	mu      sync.Mutex
	db      *lsm.DB
	srv     *kvnet.Server
	running bool
}

func startTestNode(t *testing.T) *testNode {
	t.Helper()
	n := &testNode{t: t, dir: t.TempDir()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	n.addr = ln.Addr().String()
	n.serve(ln)
	t.Cleanup(n.Kill)
	return n
}

// serve opens the engine and serves it on ln; callers hold no lock.
func (n *testNode) serve(ln net.Listener) {
	n.t.Helper()
	db, err := lsm.Open(n.dir, lsm.Options{})
	if err != nil {
		ln.Close()
		n.t.Fatal(err)
	}
	srv := kvnet.NewServer(db)
	go srv.Serve(ln)
	n.mu.Lock()
	n.db, n.srv, n.running = db, srv, true
	n.mu.Unlock()
}

// Kill crashes the node: in-flight requests fail, the address stops
// answering. Idempotent.
func (n *testNode) Kill() {
	n.mu.Lock()
	if !n.running {
		n.mu.Unlock()
		return
	}
	srv, db := n.srv, n.db
	n.running = false
	n.mu.Unlock()
	srv.Close()
	db.Close()
}

// Restart brings a killed node back on its original address with its
// original data directory.
func (n *testNode) Restart() {
	n.t.Helper()
	n.mu.Lock()
	if n.running {
		n.mu.Unlock()
		return
	}
	n.mu.Unlock()
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 50; attempt++ {
		ln, err = net.Listen("tcp", n.addr)
		if err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		n.t.Fatalf("rebind %s: %v", n.addr, err)
	}
	n.serve(ln)
}

// chaosOptions are Router options tuned for fast failure detection in
// tests.
func chaosOptions() Options {
	return Options{
		// Generous per-attempt timeout: requests queue on a node's shared
		// connection behind hint and scan traffic, and under the race
		// detector that wait is real; dead nodes are still detected fast
		// (connection refused, 40ms pings), not by timeout.
		RequestTimeout:  1500 * time.Millisecond,
		pingInterval:    40 * time.Millisecond,
		handoffInterval: 150 * time.Millisecond,
		probeBackoff:    backoff{base: 20 * time.Millisecond, max: 150 * time.Millisecond},
	}
}

func startChaosCluster(t *testing.T, n int, opts Options) ([]*testNode, *Router) {
	t.Helper()
	nodes := make([]*testNode, n)
	addrs := make([]string, n)
	for i := range nodes {
		nodes[i] = startTestNode(t)
		addrs[i] = nodes[i].addr
	}
	rt, err := DialCluster(addrs, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return nodes, rt
}

// replicaState is one node's full user-visible keyspace: key → (version,
// tombstone, value), hints excluded.
type replicaState map[string]Record

func nodeState(t *testing.T, addr string) (replicaState, error) {
	c, err := kvnet.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	st := new(kvnet.Stream)
	if err := c.OpenStream(context.Background(), st, nil, nil); err != nil {
		return nil, err
	}
	defer st.Close()
	state := replicaState{}
	for ; st.Valid(); st.Next() {
		if bytes.HasPrefix(st.Key(), []byte(hintPrefix)) {
			continue
		}
		rec, err := decodeRecord(st.Value())
		if err != nil {
			return nil, err
		}
		rec.Value = append([]byte(nil), rec.Value...)
		state[string(st.Key())] = rec
	}
	return state, st.Err()
}

// replicasConverged reports whether every node holds the identical
// keyspace: same keys, same versions, same tombstone flags, same values.
func replicasConverged(t *testing.T, nodes []*testNode) (bool, string) {
	t.Helper()
	states := make([]replicaState, len(nodes))
	for i, n := range nodes {
		st, err := nodeState(t, n.addr)
		if err != nil {
			return false, fmt.Sprintf("state of %s: %v", n.addr, err)
		}
		states[i] = st
	}
	base := states[0]
	for i, st := range states[1:] {
		if len(st) != len(base) {
			return false, fmt.Sprintf("node %d holds %d keys, node 0 holds %d", i+1, len(st), len(base))
		}
		for k, rec := range base {
			other, ok := st[k]
			if !ok {
				return false, fmt.Sprintf("node %d missing key %q", i+1, k)
			}
			if other.Version != rec.Version || other.Tombstone != rec.Tombstone || !bytes.Equal(other.Value, rec.Value) {
				return false, fmt.Sprintf("node %d diverges on key %q: v%d/%v vs v%d/%v", i+1, k, other.Version, other.Tombstone, rec.Version, rec.Tombstone)
			}
		}
	}
	return true, ""
}

// routerReader reads the cluster through a router for model.Check, with
// kvnet.ErrNotFound as not found.
type routerReader struct{ *Router }

func (r routerReader) Get(key []byte) ([]byte, bool, error) {
	v, err := r.Router.Get(context.Background(), key)
	if errors.Is(err, kvnet.ErrNotFound) {
		return nil, false, nil
	}
	return v, err == nil, err
}

func (r routerReader) Scan(start, end []byte, fn func(key, value []byte) error) error {
	it, err := r.NewIterator(context.Background(), start, end)
	if err != nil {
		return err
	}
	defer it.Close()
	for ; it.Valid(); it.Next() {
		if err := fn(it.Key(), it.Value()); err != nil {
			return err
		}
	}
	return it.Err()
}

// TestClusterChaos is the acceptance test for the replicated cluster:
// with N=3, W=2, R=2, killing any single node mid-workload loses no
// acknowledged write, Get and Put keep succeeding throughout, and after
// the node restarts, hinted handoff plus read repair reconverge all
// replicas — verified by a full-keyspace replica diff.
func TestClusterChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos test needs real time to kill and recover nodes")
	}
	nodes, rt := startChaosCluster(t, 3, chaosOptions())
	ctx := context.Background()

	const writers = 4
	const keysPerWriter = 25
	m := model.New()
	var (
		errMu  sync.Mutex
		opErrs []error
	)
	recordErr := func(err error) {
		// Snapshot the failure detector's view at failure time: by the
		// time errors are reported the nodes have recovered.
		err = fmt.Errorf("%w (down at failure: %v)", err, rt.DownReasons())
		errMu.Lock()
		opErrs = append(opErrs, err)
		errMu.Unlock()
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seq := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				op := model.Op{Key: fmt.Sprintf("chaos-%d-%02d", w, seq%keysPerWriter), Delete: seq%10 == 9}
				var err error
				if op.Delete {
					err = rt.Delete(ctx, []byte(op.Key))
				} else {
					op.Value = fmt.Sprintf("w%d-seq%d", w, seq)
					err = rt.Put(ctx, []byte(op.Key), []byte(op.Value))
				}
				if err != nil {
					recordErr(fmt.Errorf("write %s: %w", op.Key, err))
					m.Fail(op)
				} else {
					m.Apply(op)
				}
				seq++
				time.Sleep(time.Millisecond)
			}
		}(w)
	}
	// Readers: every key must stay readable (value or clean not-found) at
	// quorum while nodes die.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("chaos-%d-%02d", i%writers, i%keysPerWriter)
				if _, err := rt.Get(ctx, []byte(key)); err != nil && !errors.Is(err, kvnet.ErrNotFound) {
					recordErr(fmt.Errorf("get %s: %w", key, err))
				}
				i++
				time.Sleep(time.Millisecond)
			}
		}(r)
	}

	// The chaos schedule: kill each node in turn while the workload runs,
	// keep it dead long enough for writes to miss it, then bring it back
	// and wait for the failure detector to re-admit it.
	for round := 0; round < 3; round++ {
		victim := nodes[round%len(nodes)]
		victim.Kill()
		time.Sleep(250 * time.Millisecond)
		victim.Restart()
		deadline := time.Now().Add(10 * time.Second)
		for len(rt.DownNodes()) > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: node %s never re-admitted", round, victim.addr)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	close(stop)
	wg.Wait()

	keys := m.Keys()
	for _, err := range opErrs {
		t.Errorf("operation failed during chaos: %v", err)
	}
	if len(keys) < writers*keysPerWriter/2 {
		t.Fatalf("workload too small to be meaningful: %d keys written", len(keys))
	}

	// Convergence: hinted handoff drains, then every replica holds the
	// identical keyspace.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if err := rt.Handoff(ctx); err != nil {
			t.Logf("handoff sweep: %v", err)
		}
		// Reconvergence is hinted handoff plus read repair: a quorum read
		// of every key heals any replica a late repair or missed hint left
		// stale (the cluster is quiescent now, so repairs cannot race new
		// writes).
		for _, key := range keys {
			if _, err := rt.Get(ctx, []byte(key)); err != nil && !errors.Is(err, kvnet.ErrNotFound) {
				t.Logf("convergence read %s: %v", key, err)
			}
		}
		pending, err := rt.PendingHints(ctx)
		if err == nil && pending == 0 {
			if ok, _ := replicasConverged(t, nodes); ok {
				break
			}
		}
		if time.Now().After(deadline) {
			pending, _ := rt.PendingHints(ctx)
			_, diff := replicasConverged(t, nodes)
			t.Fatalf("replicas never converged: %d hints pending, diff: %s", pending, diff)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// No acknowledged write lost: the router serves exactly what was
	// acked for every key, by Get and by scan.
	model.Check(t, routerReader{rt}, m)

	met := rt.Metrics()
	if met.NodeDownEvents == 0 || met.NodeUpEvents == 0 {
		t.Errorf("failure detector saw no transitions: %+v", met)
	}
	if met.HintsParked == 0 {
		t.Errorf("no hints parked across three node kills: %+v", met)
	}
	t.Logf("chaos metrics: %+v, keys written: %d", met, len(keys))
}
