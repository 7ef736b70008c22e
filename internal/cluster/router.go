package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kverr"
	"repro/internal/kvnet"
	"repro/internal/lsm"
)

// Options configures a Router's replication and failure-handling
// behavior. The zero value is usable: DialCluster fills in the defaults
// below.
type Options struct {
	// VNodes is the number of virtual nodes per physical node on the
	// ring (default 64).
	VNodes int

	// ReplicationFactor (N) is how many distinct nodes store each key.
	// WriteQuorum (W) and ReadQuorum (R) are how many replicas must
	// acknowledge a write and answer a read; R+W > N is required so any
	// read quorum overlaps any write quorum and observes the newest
	// acknowledged version. Defaults: N=3, W=2, R=2. Rings smaller than
	// N degrade gracefully: quorums clamp to the actual replica-set
	// size, so a single-node "cluster" behaves like a plain client.
	ReplicationFactor int
	WriteQuorum       int
	ReadQuorum        int

	// RequestTimeout bounds each per-replica request attempt (default
	// 2s); a dead-but-routable node costs at most this before failover.
	// DialTimeout bounds connection establishment (default 5s).
	RequestTimeout time.Duration
	DialTimeout    time.Duration

	// PingInterval is how often live nodes are health-probed (default
	// 500ms). Down nodes are probed on ProbeBackoff's jittered
	// exponential schedule instead, so a crashed peer is not hammered.
	// HandoffInterval is how often parked hints are swept for replay
	// (default 2s); a node coming back is also swept immediately.
	PingInterval    time.Duration
	HandoffInterval time.Duration
	ProbeBackoff    Backoff

	// RetryBackoff paces the single in-flight re-attempt a replica read
	// or write gets, while its operation still waits for it, before it
	// counts against the quorum (default 25ms–250ms, jittered). Without
	// it one transient hiccup on a live replica while another node is
	// down would fail an otherwise healthy quorum. Its Base
	// is also a read's hedge delay: how long a replica may stay silent
	// before the read asks the next one as well.
	RetryBackoff Backoff
}

func (o Options) withDefaults() Options {
	if o.VNodes <= 0 {
		o.VNodes = 64
	}
	if o.ReplicationFactor == 0 {
		o.ReplicationFactor = 3
	}
	if o.WriteQuorum == 0 {
		o.WriteQuorum = o.ReplicationFactor/2 + 1
	}
	if o.ReadQuorum == 0 {
		o.ReadQuorum = o.ReplicationFactor/2 + 1
	}
	if o.RequestTimeout <= 0 {
		o.RequestTimeout = 2 * time.Second
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.PingInterval <= 0 {
		o.PingInterval = 500 * time.Millisecond
	}
	if o.HandoffInterval <= 0 {
		o.HandoffInterval = 2 * time.Second
	}
	if o.ProbeBackoff == (Backoff{}) {
		o.ProbeBackoff = Backoff{Base: 250 * time.Millisecond, Max: 5 * time.Second}
	}
	if o.RetryBackoff.Base <= 0 {
		o.RetryBackoff.Base = 25 * time.Millisecond
	}
	if o.RetryBackoff.Max <= 0 {
		o.RetryBackoff.Max = 250 * time.Millisecond
	}
	return o
}

func (o Options) validate() error {
	n, w, r := o.ReplicationFactor, o.WriteQuorum, o.ReadQuorum
	if n < 1 || w < 1 || r < 1 {
		return fmt.Errorf("cluster: replication factor %d, write quorum %d, read quorum %d must all be positive: %w", n, w, r, kverr.ErrConfig)
	}
	if w > n || r > n {
		return fmt.Errorf("cluster: quorums W=%d R=%d cannot exceed replication factor N=%d: %w", w, r, n, kverr.ErrConfig)
	}
	if r+w <= n {
		return fmt.Errorf("cluster: R+W must exceed N for read-write quorum overlap (got R=%d W=%d N=%d): %w", r, w, n, kverr.ErrConfig)
	}
	return nil
}

// Metrics is a point-in-time snapshot of a Router's replication counters;
// kv reports it as Stats.Cluster, in this JSON shape.
type Metrics struct {
	// Nodes is the cluster size; DownNodes is how many of them the
	// failure detector currently considers unreachable.
	Nodes     int `json:"nodes"`
	DownNodes int `json:"down_nodes"`

	ReplicationFactor int `json:"replication_factor"`
	WriteQuorum       int `json:"write_quorum"`
	ReadQuorum        int `json:"read_quorum"`

	// HintsParked counts writes parked for an unreachable replica;
	// HintsReplayed counts hints successfully delivered to a recovered
	// replica; HintsDropped counts hints lost because no live node could
	// hold them. ReadRepairs counts stale replicas rewritten after a
	// divergent quorum read. NodeDownEvents / NodeUpEvents count
	// failure-detector transitions.
	HintsParked    uint64 `json:"hints_parked"`
	HintsReplayed  uint64 `json:"hints_replayed"`
	HintsDropped   uint64 `json:"hints_dropped"`
	ReadRepairs    uint64 `json:"read_repairs"`
	NodeDownEvents uint64 `json:"node_down_events"`
	NodeUpEvents   uint64 `json:"node_up_events"`

	// Reads counts quorum reads and ReadLegs the replica requests they
	// sent, so ReadLegs/Reads is how many replicas a Get touches: R when
	// nothing goes wrong, up to N when legs are hedged. HedgedReads counts
	// the legs added because a contacted replica failed or stayed silent
	// for RetryBackoff.Base.
	Reads       uint64 `json:"reads"`
	ReadLegs    uint64 `json:"read_legs"`
	HedgedReads uint64 `json:"hedged_reads"`
}

// Router is a quorum cluster client. Every key is replicated on N
// distinct ring nodes; writes fan out to all N and acknowledge at W, reads
// ask R of them (a different R each time) and widen only when a replica
// fails, stays silent or disagrees, with R+W > N so the quorums overlap
// and the newest acknowledged version always wins. Each stored value
// carries a hybrid logical-clock stamp (see Record); replicas a read finds
// stale are repaired before the read answers, writes that miss a down
// replica park a hint on a live node and a handoff loop replays it when
// the peer returns, and a ping-based failure detector demotes dead nodes
// before user requests pay their timeouts. Safe for concurrent use.
type Router struct {
	opts   Options
	clock  hlc
	health *health

	// ring is built by DialCluster and never mutated afterwards, so the
	// request path reads it without a lock. Everything per node — health,
	// connections, an operation's legs — is indexed by the ring's node id.
	ring  *Ring
	conns []atomic.Pointer[kvnet.Client]

	// ops recycles quorumOps; readSeq rotates each read's R-subset.
	ops     sync.Pool
	readSeq atomic.Uint64

	// token distinguishes this router's hint keys from other routers'
	// concurrently parked hints; hintSeq orders them.
	token   uint32
	hintSeq atomic.Uint64

	// baseCtx is cancelled by Close; background work (probes, handoff,
	// read repair of replicas a read did not contact) runs under it.
	baseCtx     context.Context
	cancelBase  context.CancelFunc
	handoffKick chan struct{}
	loops       sync.WaitGroup // health + handoff loops
	bg          sync.WaitGroup // per-operation background work

	// deferredHints holds hints no live holder would accept (e.g. every
	// peer was unreachable for a beat); the handoff loop re-parks them.
	hintMu        sync.Mutex
	deferredHints []deferredHint

	hintsParked   atomic.Uint64
	hintsReplayed atomic.Uint64
	hintsDropped  atomic.Uint64
	readRepairs   atomic.Uint64
	nodeDown      atomic.Uint64
	nodeUp        atomic.Uint64
	reads         atomic.Uint64
	readLegs      atomic.Uint64
	hedgedReads   atomic.Uint64

	mu      sync.Mutex // serializes redials against each other and Close
	closing bool       // Close has begun draining; makes Close idempotent
	closed  bool
}

// DialCluster connects to every address and builds a quorum router over
// them. Node names are the addresses themselves. Unreachable nodes join
// the ring demoted and are re-admitted by the failure detector when they
// answer pings; only a cluster with no reachable node at all is rejected
// as a configuration error.
func DialCluster(addrs []string, opts Options) (*Router, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("cluster: no addresses: %w", kverr.ErrConfig)
	}
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	ring := NewRing(opts.VNodes)
	for _, addr := range addrs {
		ring.AddNode(addr)
	}
	ctx, cancel := context.WithCancel(context.Background())
	rt := &Router{
		opts:        opts,
		health:      newHealth(opts.ProbeBackoff, ring.names),
		token:       uint32(time.Now().UnixNano()),
		baseCtx:     ctx,
		cancelBase:  cancel,
		handoffKick: make(chan struct{}, 1),
		ring:        ring,
		conns:       make([]atomic.Pointer[kvnet.Client], len(ring.names)),
	}
	rt.ops.New = func() any { return newQuorumOp(rt) }
	// A quorum client must come up even when some replicas are down —
	// that is the whole point. An unreachable node joins the ring marked
	// down (the health loop probes and re-admits it; requests redial
	// lazily); only a cluster with no reachable node at all fails the
	// dial, since that is indistinguishable from a bad address list.
	reachable := 0
	var firstErr error
	for node, addr := range ring.names {
		c, err := rt.dial(addr)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: dial %s: %w", addr, err)
			}
			rt.noteFailure(node, rt.health.generation(node), err)
			continue
		}
		rt.conns[node].Store(c)
		reachable++
	}
	if reachable == 0 {
		rt.Close()
		return nil, fmt.Errorf("%w: no reachable node: %w", kverr.ErrUnavailable, firstErr)
	}
	rt.loops.Add(2)
	go rt.healthLoop()
	go rt.handoffLoop()
	return rt, nil
}

// Close drains in-flight background work, then stops the loops and
// closes every node connection. The drain matters for hint durability:
// a write that acked at W may still have a straggler replica attempt in
// flight whose failure parks a hint — a short-lived client (the CLI, a
// batch job) that tore connections down first would silently abandon
// those hints and leave the down replica to converge by read repair
// alone. So Close first waits for per-operation background goroutines
// with the connections still usable, then makes one bounded attempt to
// park anything still deferred in memory, and only then tears down.
func (rt *Router) Close() error {
	rt.mu.Lock()
	if rt.closing {
		rt.mu.Unlock()
		return nil
	}
	rt.closing = true
	rt.mu.Unlock()

	rt.bg.Wait()
	drainCtx, cancelDrain := context.WithTimeout(rt.baseCtx, rt.opts.RequestTimeout)
	rt.reparkDeferred(drainCtx)
	cancelDrain()

	rt.mu.Lock()
	rt.closed = true
	conns := make([]*kvnet.Client, len(rt.conns))
	for node := range rt.conns {
		conns[node] = rt.conns[node].Swap(nil)
	}
	rt.mu.Unlock()

	rt.cancelBase()
	var first error
	for _, c := range conns {
		if c == nil {
			continue
		}
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	rt.loops.Wait()
	rt.bg.Wait()
	return first
}

// Metrics returns a snapshot of the router's replication counters.
func (rt *Router) Metrics() Metrics {
	return Metrics{
		Nodes:             len(rt.conns),
		DownNodes:         len(rt.health.downNodes()),
		ReplicationFactor: rt.opts.ReplicationFactor,
		WriteQuorum:       rt.opts.WriteQuorum,
		ReadQuorum:        rt.opts.ReadQuorum,
		HintsParked:       rt.hintsParked.Load(),
		HintsReplayed:     rt.hintsReplayed.Load(),
		HintsDropped:      rt.hintsDropped.Load(),
		ReadRepairs:       rt.readRepairs.Load(),
		NodeDownEvents:    rt.nodeDown.Load(),
		NodeUpEvents:      rt.nodeUp.Load(),
		Reads:             rt.reads.Load(),
		ReadLegs:          rt.readLegs.Load(),
		HedgedReads:       rt.hedgedReads.Load(),
	}
}

// DownNodes returns the nodes the failure detector currently considers
// unreachable.
func (rt *Router) DownNodes() []string {
	return rt.health.downNodes()
}

// ReplicaNodes returns the full replica set for key.
func (rt *Router) ReplicaNodes(key []byte) []string {
	return rt.ring.ReplicaSet(key, rt.opts.ReplicationFactor)
}

func (rt *Router) dial(addr string) (*kvnet.Client, error) {
	conn, err := net.DialTimeout("tcp", addr, rt.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	return kvnet.NewClient(conn), nil
}

// client returns node's connection, re-dialing if the cached one was
// closed or has failed. The cached, healthy case is one atomic load.
func (rt *Router) client(node int) (*kvnet.Client, error) {
	if c := rt.conns[node].Load(); c != nil && c.Healthy() {
		return c, nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return nil, fmt.Errorf("cluster: router closed: %w", kverr.ErrClosed)
	}
	// Recheck under the lock: another goroutine may have re-dialed.
	if c := rt.conns[node].Load(); c != nil && c.Healthy() {
		return c, nil
	}
	c, err := rt.dial(rt.ring.names[node])
	if err != nil {
		return nil, fmt.Errorf("cluster: redial %s: %w", rt.ring.names[node], err)
	}
	rt.conns[node].Store(c)
	return c, nil
}

// noteFailure reports a node-level failure to the failure detector. gen
// is the node's up-epoch from when the failing attempt began; a stale
// verdict (the node was promoted since) is discarded rather than
// re-demoting a recovered node.
func (rt *Router) noteFailure(node int, gen uint64, err error) {
	if rt.health.markDown(node, gen, err) {
		rt.nodeDown.Add(1)
	}
}

// DownReasons reports, for each node the failure detector currently
// considers down, the error that demoted it.
func (rt *Router) DownReasons() map[string]error {
	return rt.health.downReasons()
}

// kickHandoff nudges the handoff loop to sweep now (non-blocking).
func (rt *Router) kickHandoff() {
	select {
	case rt.handoffKick <- struct{}{}:
	default:
	}
}

// nodeCall is one request against one node's connection. The quorum
// legs implement it on their own state, so the request path passes a
// pointer where a closure would have to be allocated; everything else
// goes through do with a func.
type nodeCall interface {
	call(ctx context.Context, c *kvnet.Client) error
}

type callFunc func(ctx context.Context, c *kvnet.Client) error

func (f callFunc) call(ctx context.Context, c *kvnet.Client) error { return f(ctx, c) }

// do runs fn against node's connection with the per-request timeout
// applied; see doCall.
func (rt *Router) do(ctx context.Context, node int, fn func(ctx context.Context, c *kvnet.Client) error) error {
	return rt.doCall(ctx, nil, node, callFunc(fn))
}

// doCall runs call against node's connection under the per-request
// timeout. The connection is multiplexed and shared by every caller, so a
// typed server-side error or the caller's own cancellation leaves it in
// place. Two things do not: a transport failure (a cached connection can
// turn out stale only once it is used — the server's idle timeout reaps
// quiet connections silently), and a request that ran into the
// per-request timeout, which is this layer's evidence that the peer has
// gone silent — the connection is dropped so the next attempt re-dials
// and finds a restarted node. Either gets one retry on a fresh
// connection; every protocol operation is idempotent, so the retry is
// safe even if the failed attempt reached the server. Failures that are
// the node's fault (not the caller's cancelled context) are reported to
// the failure detector.
//
// first, when non-nil, is ctx already bounded by the timeout: a quorum
// operation derives it once and every leg's first attempt runs under it.
// Only the retry — already the slow path — derives a deadline of its own.
func (rt *Router) doCall(ctx, first context.Context, node int, call nodeCall) error {
	for attempt := 0; ; attempt++ {
		gen := rt.health.generation(node)
		c, err := rt.client(node)
		if err != nil {
			if ctx.Err() == nil && rt.baseCtx.Err() == nil {
				rt.noteFailure(node, gen, err)
			}
			return err
		}
		actx, cancel := first, context.CancelFunc(nil)
		if actx == nil || attempt > 0 {
			actx, cancel = context.WithTimeout(ctx, rt.opts.RequestTimeout)
		}
		err = call.call(actx, c)
		timedOut := actx.Err() != nil
		if cancel != nil {
			cancel()
		}
		if err == nil {
			return nil
		}
		if ctx.Err() != nil || (c.Healthy() && !timedOut) {
			// The caller's own context expired, or a typed server-side
			// error came back over a live connection — nothing to retry and
			// no verdict on the node.
			return err
		}
		if timedOut {
			c.Close()
		}
		if attempt >= 1 {
			rt.noteFailure(node, gen, err)
			return err
		}
	}
}

// terminalReplicaErr reports whether a replica error is a typed engine
// answer a retry cannot change: the server processed the request and
// said no. Transport failures, timeouts and ErrStalled (a write that
// outwaited its deadline behind a busy flusher — exactly the transient
// condition backoff exists for) are worth re-attempting.
func terminalReplicaErr(err error) bool {
	return errors.Is(err, kverr.ErrReadOnly) ||
		errors.Is(err, kverr.ErrCorrupt) ||
		errors.Is(err, kverr.ErrBatchTooLarge) ||
		errors.Is(err, kverr.ErrConfig) ||
		errors.Is(err, kverr.ErrClosed)
}

// checkUserKey rejects keys in the cluster's reserved namespace.
func checkUserKey(key []byte) error {
	if bytes.HasPrefix(key, []byte(hintPrefix)) {
		return fmt.Errorf("cluster: key %q uses the reserved hint prefix: %w", key, kverr.ErrConfig)
	}
	return nil
}

// Put replicates key → value at write quorum.
func (rt *Router) Put(ctx context.Context, key, value []byte) error {
	return rt.Write(ctx, []kvnet.BatchOp{{Key: key, Value: value}})
}

// Delete replicates a tombstone for key at write quorum. A delete is a
// versioned write like any other: replicas that missed it converge via
// hints and read repair instead of resurrecting the key.
func (rt *Router) Delete(ctx context.Context, key []byte) error {
	return rt.Write(ctx, []kvnet.BatchOp{{Key: key, Delete: true}})
}

// Write replicates a batch of operations at write quorum. Each replica
// applies its share atomically through the engine's group commit;
// cross-replica atomicity is the quorum's (a torn batch converges via
// hints and read repair, and versions assigned in op order keep
// last-op-wins semantics for duplicate keys).
func (rt *Router) Write(ctx context.Context, batch []kvnet.BatchOp) error {
	if len(batch) == 0 {
		return nil
	}
	for i := range batch {
		if len(batch[i].Key) == 0 {
			return fmt.Errorf("cluster: empty key: %w", kverr.ErrConfig)
		}
		if err := checkUserKey(batch[i].Key); err != nil {
			return err
		}
	}
	o := rt.acquireOp(ctx)
	defer o.finish()
	return o.write(batch)
}

// Get reads key at read quorum, resolving replica divergence to the
// newest version. Deleted and never-written keys both return
// kverr.ErrNotFound.
func (rt *Router) Get(ctx context.Context, key []byte) ([]byte, error) {
	if err := checkUserKey(key); err != nil {
		return nil, err
	}
	o := rt.acquireOp(ctx)
	defer o.finish()
	rec, err := o.get(key)
	if err != nil {
		return nil, err
	}
	if rec.Version == 0 || rec.Tombstone {
		return nil, kverr.ErrNotFound
	}
	// Only the winner's value leaves its leg's buffer, which the op keeps.
	return append([]byte{}, rec.Value...), nil
}

// forAll runs fn against every live node concurrently and collects
// per-node errors. Nodes the failure detector considers down are skipped
// — maintenance fan-outs (flush, compaction, stats) are best-effort over
// the reachable cluster, and a down node catches up through hints, not
// through a flush it cannot receive.
func (rt *Router) forAll(ctx context.Context, fn func(ctx context.Context, node string, c *kvnet.Client) error) map[string]error {
	var (
		wg   sync.WaitGroup
		emu  sync.Mutex
		errs = make(map[string]error)
	)
	for node, name := range rt.ring.names {
		if rt.health.isDown(node) {
			continue
		}
		wg.Add(1)
		go func(node int, name string) {
			defer wg.Done()
			err := rt.do(ctx, node, func(actx context.Context, c *kvnet.Client) error { return fn(actx, name, c) })
			emu.Lock()
			errs[name] = err
			emu.Unlock()
		}(node, name)
	}
	wg.Wait()
	return errs
}

// FlushAll flushes every live node's memtable; the first error is
// returned.
func (rt *Router) FlushAll(ctx context.Context) error {
	for node, err := range rt.forAll(ctx, func(actx context.Context, _ string, c *kvnet.Client) error { return c.Flush(actx) }) {
		if err != nil {
			return fmt.Errorf("cluster: flush %s: %w", node, err)
		}
	}
	return nil
}

// CompactAll triggers a major compaction on every live node with the
// given strategy, returning per-node results.
func (rt *Router) CompactAll(ctx context.Context, strategy string, k int) (map[string]*lsm.CompactionResult, error) {
	return gather(ctx, rt, "compact", func(actx context.Context, c *kvnet.Client) (*lsm.CompactionResult, error) {
		return c.Compact(actx, strategy, k)
	})
}

// StatsAll fetches statistics from every live node.
func (rt *Router) StatsAll(ctx context.Context) (map[string]*lsm.Stats, error) {
	return gather(ctx, rt, "stats", func(actx context.Context, c *kvnet.Client) (*lsm.Stats, error) {
		return c.Stats(actx)
	})
}

// gather runs fetch against every live node and collects the answers by
// node name; the first failure is returned beside what did arrive.
func gather[T any](ctx context.Context, rt *Router, what string, fetch func(context.Context, *kvnet.Client) (T, error)) (map[string]T, error) {
	var (
		mu  sync.Mutex
		out = make(map[string]T)
	)
	errs := rt.forAll(ctx, func(actx context.Context, node string, c *kvnet.Client) error {
		v, err := fetch(actx, c)
		if err != nil {
			return err
		}
		mu.Lock()
		out[node] = v
		mu.Unlock()
		return nil
	})
	for node, err := range errs {
		if err != nil {
			return out, fmt.Errorf("cluster: %s %s: %w", what, node, err)
		}
	}
	return out, nil
}

// healthLoop probes nodes on PingInterval: up nodes every tick, down
// nodes on their backoff schedule. A down node answering a ping is
// promoted and the handoff loop kicked so its parked hints replay
// immediately.
func (rt *Router) healthLoop() {
	defer rt.loops.Done()
	t := time.NewTicker(rt.opts.PingInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.baseCtx.Done():
			return
		case <-t.C:
		}
		var wg sync.WaitGroup
		for _, node := range rt.health.dueProbes(time.Now()) {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				rt.probe(node)
			}(node)
		}
		wg.Wait()
	}
}

// probe pings one node and records the verdict.
func (rt *Router) probe(node int) {
	gen := rt.health.generation(node)
	ctx, cancel := context.WithTimeout(rt.baseCtx, rt.opts.RequestTimeout)
	defer cancel()
	err := rt.do(ctx, node, func(actx context.Context, c *kvnet.Client) error { return c.Ping(actx) })
	if err != nil {
		if rt.baseCtx.Err() == nil {
			rt.noteFailure(node, gen, err)
		}
		return
	}
	if rt.health.markUp(node) {
		rt.nodeUp.Add(1)
		rt.kickHandoff()
	}
}
