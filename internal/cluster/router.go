package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kverr"
	"repro/internal/kvnet"
	"repro/internal/retry"
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
	ProbeBackoff    retry.Backoff

	// RetryBackoff paces the single in-flight re-attempt a replica read
	// or write gets before it counts against the quorum (default
	// 25ms–250ms, jittered). Replica operations are idempotent — records
	// carry version stamps and the newest wins — so retrying is always
	// safe; without it one transient hiccup on a live replica while
	// another node is down would fail an otherwise healthy quorum.
	RetryBackoff retry.Backoff
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
	if o.ProbeBackoff == (retry.Backoff{}) {
		o.ProbeBackoff = retry.Backoff{Base: 250 * time.Millisecond, Max: 5 * time.Second}
	}
	if o.RetryBackoff == (retry.Backoff{}) {
		o.RetryBackoff = retry.Backoff{Base: 25 * time.Millisecond, Max: 250 * time.Millisecond}
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

// Metrics is a point-in-time snapshot of a Router's replication
// counters.
type Metrics struct {
	Nodes             int
	DownNodes         int
	ReplicationFactor int
	WriteQuorum       int
	ReadQuorum        int

	// HintsParked counts writes parked for an unreachable replica;
	// HintsReplayed counts hints successfully delivered to a recovered
	// replica; HintsDropped counts hints lost because no live node could
	// hold them. ReadRepairs counts stale replicas rewritten after a
	// divergent quorum read. NodeDownEvents / NodeUpEvents count
	// failure-detector transitions.
	HintsParked    uint64
	HintsReplayed  uint64
	HintsDropped   uint64
	ReadRepairs    uint64
	NodeDownEvents uint64
	NodeUpEvents   uint64
}

// Router is a quorum cluster client. Every key is replicated on N
// distinct ring nodes; writes fan out to all N and acknowledge at W,
// reads at R, with R+W > N so the quorums overlap and the newest
// acknowledged version always wins. Each stored value carries a hybrid
// logical-clock stamp (see Record); divergent replicas are detected on
// read and repaired in the background, writes that miss a down replica
// park a hint on a live node and a handoff loop replays it when the peer
// returns, and a ping-based failure detector demotes dead nodes before
// user requests pay their timeouts. Safe for concurrent use.
type Router struct {
	opts   Options
	clock  hlc
	health *health

	// token distinguishes this router's hint keys from other routers'
	// concurrently parked hints; hintSeq orders them.
	token   uint32
	hintSeq atomic.Uint64

	// baseCtx is cancelled by Close; background work (probes, handoff,
	// read repair, straggler replica writes) runs under it.
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

	mu      sync.RWMutex
	ring    *Ring
	conns   map[string]*kvnet.Client
	closing bool // Close has begun draining; makes Close idempotent
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
	ctx, cancel := context.WithCancel(context.Background())
	rt := &Router{
		opts:        opts,
		health:      newHealth(opts.ProbeBackoff),
		token:       uint32(time.Now().UnixNano()),
		baseCtx:     ctx,
		cancelBase:  cancel,
		handoffKick: make(chan struct{}, 1),
		ring:        NewRing(opts.VNodes),
		conns:       make(map[string]*kvnet.Client),
	}
	// A quorum client must come up even when some replicas are down —
	// that is the whole point. An unreachable node joins the ring marked
	// down (the health loop probes and re-admits it; requests redial
	// lazily); only a cluster with no reachable node at all fails the
	// dial, since that is indistinguishable from a bad address list.
	reachable := 0
	var firstErr error
	for _, addr := range addrs {
		rt.ring.AddNode(addr)
		c, err := rt.dial(addr)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("cluster: dial %s: %w", addr, err)
			}
			rt.noteFailure(addr, rt.health.generation(addr), err)
			continue
		}
		rt.conns[addr] = c
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
	conns := rt.conns
	rt.conns = map[string]*kvnet.Client{}
	rt.mu.Unlock()

	rt.cancelBase()
	var first error
	for _, c := range conns {
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
	rt.mu.RLock()
	nodes := len(rt.ring.nodes)
	rt.mu.RUnlock()
	return Metrics{
		Nodes:             nodes,
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
	}
}

// DownNodes returns the nodes the failure detector currently considers
// unreachable.
func (rt *Router) DownNodes() []string {
	return rt.health.downNodes()
}

// Owner returns the primary owner of key — the first member of its
// replica set.
func (rt *Router) Owner(key []byte) string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring.Lookup(key)
}

// ReplicaNodes returns the full replica set for key.
func (rt *Router) ReplicaNodes(key []byte) []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring.ReplicaSet(key, rt.opts.ReplicationFactor)
}

func (rt *Router) nodeNames() []string {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	return rt.ring.Nodes()
}

func (rt *Router) dial(addr string) (*kvnet.Client, error) {
	conn, err := net.DialTimeout("tcp", addr, rt.opts.DialTimeout)
	if err != nil {
		return nil, err
	}
	return kvnet.NewClient(conn), nil
}

// client returns node's connection, re-dialing if the cached one was
// closed or poisoned.
func (rt *Router) client(node string) (*kvnet.Client, error) {
	rt.mu.RLock()
	c, ok := rt.conns[node]
	closed := rt.closed
	rt.mu.RUnlock()
	if closed {
		return nil, fmt.Errorf("cluster: router closed: %w", kverr.ErrClosed)
	}
	if ok && c.Healthy() {
		return c, nil
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.closed {
		return nil, fmt.Errorf("cluster: router closed: %w", kverr.ErrClosed)
	}
	// Recheck under the write lock: another goroutine may have re-dialed.
	if c, ok := rt.conns[node]; ok && c.Healthy() {
		return c, nil
	}
	c, err := rt.dial(node)
	if err != nil {
		return nil, fmt.Errorf("cluster: redial %s: %w", node, err)
	}
	rt.conns[node] = c
	return c, nil
}

// noteFailure reports a node-level failure to the failure detector. gen
// is the node's up-epoch from when the failing attempt began; a stale
// verdict (the node was promoted since) is discarded rather than
// re-demoting a recovered node.
func (rt *Router) noteFailure(node string, gen uint64, err error) {
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

// do runs fn against node's connection with the per-request timeout
// applied. The connection is multiplexed and shared by every caller, so a
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
func (rt *Router) do(ctx context.Context, node string, fn func(ctx context.Context, c *kvnet.Client) error) error {
	for attempt := 0; ; attempt++ {
		gen := rt.health.generation(node)
		c, err := rt.client(node)
		if err != nil {
			if ctx.Err() == nil && rt.baseCtx.Err() == nil {
				rt.noteFailure(node, gen, err)
			}
			return err
		}
		actx, cancel := context.WithTimeout(ctx, rt.opts.RequestTimeout)
		err = fn(actx, c)
		timedOut := actx.Err() != nil
		cancel()
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
// said no. Transport failures, timeouts and ErrStalled (compaction
// backpressure — exactly the transient condition backoff exists for)
// are worth re-attempting.
func terminalReplicaErr(err error) bool {
	return errors.Is(err, kverr.ErrReadOnly) ||
		errors.Is(err, kverr.ErrCorrupt) ||
		errors.Is(err, kverr.ErrBatchTooLarge) ||
		errors.Is(err, kverr.ErrConfig) ||
		errors.Is(err, kverr.ErrClosed)
}

// doRetry runs a replica operation through do, giving transport-level
// failures one paced re-attempt (Options.RetryBackoff) before the
// error counts against the quorum. Replica reads and writes are
// idempotent — records carry version stamps — so the retry is always
// safe; without it a single hiccup on a live replica while another
// node is down fails an otherwise healthy quorum.
func (rt *Router) doRetry(ctx context.Context, node string, fn func(ctx context.Context, c *kvnet.Client) error) error {
	var last error
	err := retry.Do(ctx, 2, rt.opts.RetryBackoff, func(int) error {
		last = rt.do(ctx, node, fn)
		if last == nil || terminalReplicaErr(last) {
			return nil // done: success, or an answer no retry can change
		}
		return last
	})
	if last != nil {
		return last
	}
	return err // ctx expired before the first attempt ran
}

// checkUserKey rejects keys in the cluster's reserved namespace.
func checkUserKey(key []byte) error {
	if bytes.HasPrefix(key, []byte(hintPrefix)) {
		return fmt.Errorf("cluster: key %q uses the reserved hint prefix: %w", key, kverr.ErrConfig)
	}
	return nil
}

// repOp is one logical write in flight: a key, its encoded record, and
// the replica set it targets.
type repOp struct {
	key      []byte
	rec      []byte
	replicas []string
}

// nodeResult is one replica's verdict on its share of a quorum write.
type nodeResult struct {
	node string
	err  error
}

// quorumWrite replicates a set of logical writes: each op fans out to
// its full replica set and the call succeeds once every op has W acks.
// The ops must own their keys and records: the straggler replica's write
// and any hint it parks run on after the call has returned, when the
// caller is free to reuse its buffers.
// Replicas the failure detector considers down are not attempted (unless
// an op cannot reach quorum without them, covering detector false
// positives); their share is parked as a hint immediately. Replicas that
// fail or straggle after quorum get their share parked too, so a
// successful return still converges to N live copies.
func (rt *Router) quorumWrite(ctx context.Context, ops []repOp) error {
	if len(ops) == 0 {
		return nil
	}
	need := make([]int, len(ops)) // effective W per op
	capacity := make([]int, len(ops))
	attempt := make(map[string][]int) // node -> op indexes to attempt
	skip := make(map[string][]int)    // down node -> op indexes parked immediately

	down := make(map[string]bool)
	for _, n := range rt.health.downNodes() {
		down[n] = true
	}
	for i, op := range ops {
		if len(op.replicas) == 0 {
			return fmt.Errorf("cluster: empty ring: %w", kverr.ErrConfig)
		}
		w := rt.opts.WriteQuorum
		if w > len(op.replicas) {
			w = len(op.replicas)
		}
		need[i] = w
		capacity[i] = len(op.replicas)
		live := 0
		for _, n := range op.replicas {
			if !down[n] {
				live++
			}
		}
		for _, n := range op.replicas {
			// A down replica is attempted anyway while the live replicas
			// have no failure slack (live <= w): the detector may be wrong
			// — or a beat behind a node that just recovered — and in the
			// slackless regime a single live-replica hiccup would fail an
			// otherwise reachable quorum. Only with spare live replicas is
			// the down node skipped outright, so a blackholed peer costs
			// nothing. Quorum still comes first: the write acknowledges on
			// the first w acks, never waiting on the presumed-dead node.
			if !down[n] || live <= w {
				attempt[n] = append(attempt[n], i)
			} else {
				skip[n] = append(skip[n], i)
			}
		}
	}

	results := make(chan nodeResult, len(attempt))
	for node, idxs := range attempt {
		batch := make([]kvnet.BatchOp, len(idxs))
		for j, i := range idxs {
			batch[j] = kvnet.BatchOp{Key: ops[i].key, Value: ops[i].rec}
		}
		node := node
		rt.bg.Add(1)
		go func() {
			defer rt.bg.Done()
			err := rt.doRetry(ctx, node, func(actx context.Context, c *kvnet.Client) error {
				return c.Write(actx, batch)
			})
			if err != nil && ctx.Err() == nil {
				// Park a hint only when the replica, not the caller's
				// context, is at fault: a cancelled caller got an error
				// back and expects the write not to converge.
				rt.parkHintFor(node, batch)
			}
			results <- nodeResult{node: node, err: err}
		}()
	}
	for node, idxs := range skip {
		batch := make([]kvnet.BatchOp, len(idxs))
		for j, i := range idxs {
			batch[j] = kvnet.BatchOp{Key: ops[i].key, Value: ops[i].rec}
		}
		rt.parkHintFor(node, batch)
	}

	acks := make([]int, len(ops))
	fails := make([]int, len(ops))
	for i := range ops {
		// Skipped replicas count as failed up front.
		fails[i] = capacity[i] - replicaAttempts(ops[i].replicas, attempt)
	}
	var replicaErrs []error
	if impossible(need, fails, capacity) {
		return fmt.Errorf("cluster: write quorum unreachable (replicas down): %w", kverr.ErrUnavailable)
	}
	quorumFailed := func() error {
		cause := errors.Join(replicaErrs...)
		if cause == nil {
			cause = fmt.Errorf("cluster: insufficient replicas")
		}
		skipped := make([]string, 0, len(skip))
		for n := range skip {
			skipped = append(skipped, n)
		}
		sort.Strings(skipped)
		return fmt.Errorf("cluster: write quorum failed (skipped down: %v): %w (replica errors: %w)", skipped, kverr.ErrUnavailable, cause)
	}
	pending := len(attempt)
	for pending > 0 {
		select {
		case res := <-results:
			pending--
			for _, i := range attempt[res.node] {
				if res.err == nil {
					acks[i]++
				} else {
					fails[i]++
				}
			}
			if res.err != nil {
				replicaErrs = append(replicaErrs, fmt.Errorf("%s: %w", res.node, res.err))
			}
			if satisfied(acks, need) {
				return nil
			}
			if impossible(need, fails, capacity) {
				return quorumFailed()
			}
		case <-ctx.Done():
			return fmt.Errorf("cluster: write abandoned: %w", ctx.Err())
		}
	}
	if satisfied(acks, need) {
		return nil
	}
	return quorumFailed()
}

func replicaAttempts(replicas []string, attempt map[string][]int) int {
	n := 0
	for _, r := range replicas {
		if _, ok := attempt[r]; ok {
			n++
		}
	}
	return n
}

func satisfied(acks, need []int) bool {
	for i := range acks {
		if acks[i] < need[i] {
			return false
		}
	}
	return true
}

func impossible(need, fails, capacity []int) bool {
	for i := range need {
		if capacity[i]-fails[i] < need[i] {
			return true
		}
	}
	return false
}

// Put replicates key → value at write quorum.
func (rt *Router) Put(ctx context.Context, key, value []byte) error {
	if err := checkUserKey(key); err != nil {
		return err
	}
	rec := Record{Version: rt.clock.Next(), Value: value}
	return rt.quorumWrite(ctx, []repOp{{key: bytes.Clone(key), rec: rec.Encode(), replicas: rt.ReplicaNodes(key)}})
}

// Delete replicates a tombstone for key at write quorum. A delete is a
// versioned write like any other: replicas that missed it converge via
// hints and read repair instead of resurrecting the key.
func (rt *Router) Delete(ctx context.Context, key []byte) error {
	if err := checkUserKey(key); err != nil {
		return err
	}
	rec := Record{Version: rt.clock.Next(), Tombstone: true}
	return rt.quorumWrite(ctx, []repOp{{key: bytes.Clone(key), rec: rec.Encode(), replicas: rt.ReplicaNodes(key)}})
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
	ops := make([]repOp, len(batch))
	for i, op := range batch {
		if err := checkUserKey(op.Key); err != nil {
			return err
		}
		rec := Record{Version: rt.clock.Next(), Tombstone: op.Delete}
		if !op.Delete {
			rec.Value = op.Value
		}
		ops[i] = repOp{key: bytes.Clone(op.Key), rec: rec.Encode(), replicas: rt.ReplicaNodes(op.Key)}
	}
	return rt.quorumWrite(ctx, ops)
}

// readResult is one replica's answer to a quorum read.
type readResult struct {
	node string
	rec  Record
	err  error
}

// quorumGet reads key from its replica set and resolves the newest
// version. All live replicas are queried (down ones only when needed to
// reach quorum); the call needs R answers to succeed. Replicas observed
// stale — an older version, or missing the key entirely — are repaired
// in the background with the winning record.
func (rt *Router) quorumGet(ctx context.Context, key []byte) (Record, error) {
	// The slowest replica's read and any read repair outlive the call.
	key = bytes.Clone(key)
	replicas := rt.ReplicaNodes(key)
	if len(replicas) == 0 {
		return Record{}, fmt.Errorf("cluster: empty ring: %w", kverr.ErrConfig)
	}
	r := rt.opts.ReadQuorum
	if r > len(replicas) {
		r = len(replicas)
	}
	down := make(map[string]bool)
	for _, n := range rt.health.downNodes() {
		down[n] = true
	}
	queried := make([]string, 0, len(replicas))
	live := 0
	for _, n := range replicas {
		if !down[n] {
			queried = append(queried, n)
			live++
		}
	}
	// Query presumed-down replicas too while the live set has no slack
	// (live <= r): the detector may be wrong or a beat behind a restart,
	// and slackless reads would otherwise fail on one live hiccup.
	if live <= r {
		queried = append(queried[:0], replicas...)
	}

	results := make(chan readResult, len(queried))
	for _, node := range queried {
		node := node
		rt.bg.Add(1)
		go func() {
			defer rt.bg.Done()
			var rec Record
			err := rt.doRetry(ctx, node, func(actx context.Context, c *kvnet.Client) error {
				raw, err := c.Get(actx, key)
				if err != nil {
					if errors.Is(err, kverr.ErrNotFound) {
						rec = Record{} // version 0: replica has never seen the key
						return nil
					}
					return err
				}
				rec, err = decodeRecord(raw)
				return err
			})
			results <- readResult{node: node, rec: rec, err: err}
		}()
	}

	// Collect answers from every live replica (their divergence is what
	// read repair fixes), but never wait on a presumed-down one: once r
	// answers are in and only down replicas are outstanding, resolve. A
	// blackholed peer costs the read nothing.
	outstanding := make(map[string]bool, len(queried))
	for _, n := range queried {
		outstanding[n] = true
	}
	onlyDownOutstanding := func() bool {
		for n := range outstanding {
			if !down[n] {
				return false
			}
		}
		return true
	}
	var (
		answers  []readResult
		firstErr error
	)
	var replicaErrs []error
	for len(outstanding) > 0 {
		if len(answers) >= r && onlyDownOutstanding() {
			break
		}
		select {
		case res := <-results:
			delete(outstanding, res.node)
			if res.err != nil {
				replicaErrs = append(replicaErrs, fmt.Errorf("%s: %w", res.node, res.err))
				continue
			}
			answers = append(answers, res)
		case <-ctx.Done():
			return Record{}, fmt.Errorf("cluster: read abandoned: %w", ctx.Err())
		}
	}
	if len(answers) < r {
		if firstErr = errors.Join(replicaErrs...); firstErr == nil {
			firstErr = fmt.Errorf("cluster: insufficient replicas")
		}
		return Record{}, fmt.Errorf("cluster: read quorum failed (%d/%d answers from %v): %w (replica errors: %w)", len(answers), r, queried, kverr.ErrUnavailable, firstErr)
	}

	winner := answers[0]
	for _, a := range answers[1:] {
		if a.rec.Version > winner.rec.Version {
			winner = a
		}
	}
	rt.clock.Observe(winner.rec.Version)
	if winner.rec.Version != 0 {
		rt.repairStale(key, winner.rec, answers)
	}
	return winner.rec, nil
}

// repairStale rewrites the winning record onto replicas that answered
// with an older version (or none at all), in the background.
func (rt *Router) repairStale(key []byte, winner Record, answers []readResult) {
	enc := winner.Encode()
	for _, a := range answers {
		if a.rec.Version >= winner.Version {
			continue
		}
		node := a.node
		rt.bg.Add(1)
		go func() {
			defer rt.bg.Done()
			// Re-check the replica's version immediately before writing: a
			// newer quorum write may have landed since this read answered,
			// and a blind put of the old winner would regress the replica.
			// The check narrows that race from the whole read-to-repair
			// latency to one round trip; a repair that still loses the
			// sliver is healed by the next read of the key.
			cur, err := rt.recordVersionOn(rt.baseCtx, node, key)
			if err != nil || cur >= winner.Version {
				return
			}
			err = rt.do(rt.baseCtx, node, func(actx context.Context, c *kvnet.Client) error {
				return c.Put(actx, key, enc)
			})
			if err == nil {
				rt.readRepairs.Add(1)
			}
		}()
	}
}

// Get reads key at read quorum, resolving replica divergence to the
// newest version. Deleted and never-written keys both return
// kverr.ErrNotFound.
func (rt *Router) Get(ctx context.Context, key []byte) ([]byte, error) {
	if err := checkUserKey(key); err != nil {
		return nil, err
	}
	rec, err := rt.quorumGet(ctx, key)
	if err != nil {
		return nil, err
	}
	if rec.Version == 0 || rec.Tombstone {
		return nil, kverr.ErrNotFound
	}
	return rec.Value, nil
}

// forAll runs fn against every live node concurrently and collects
// per-node errors. Nodes the failure detector considers down are skipped
// — maintenance fan-outs (flush, compaction, stats) are best-effort over
// the reachable cluster, and a down node catches up through hints, not
// through a flush it cannot receive.
func (rt *Router) forAll(ctx context.Context, fn func(ctx context.Context, node string, c *kvnet.Client) error) map[string]error {
	down := make(map[string]bool)
	for _, n := range rt.health.downNodes() {
		down[n] = true
	}
	var (
		wg   sync.WaitGroup
		emu  sync.Mutex
		errs = make(map[string]error)
	)
	for _, node := range rt.nodeNames() {
		if down[node] {
			continue
		}
		wg.Add(1)
		go func(node string) {
			defer wg.Done()
			err := rt.do(ctx, node, func(actx context.Context, c *kvnet.Client) error { return fn(actx, node, c) })
			emu.Lock()
			errs[node] = err
			emu.Unlock()
		}(node)
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
func (rt *Router) CompactAll(ctx context.Context, strategy string, k int) (map[string]*kvnet.CompactInfo, error) {
	var (
		mu  sync.Mutex
		out = make(map[string]*kvnet.CompactInfo)
	)
	errs := rt.forAll(ctx, func(actx context.Context, node string, c *kvnet.Client) error {
		info, err := c.Compact(actx, strategy, k)
		if err != nil {
			return err
		}
		mu.Lock()
		out[node] = info
		mu.Unlock()
		return nil
	})
	for node, err := range errs {
		if err != nil {
			return out, fmt.Errorf("cluster: compact %s: %w", node, err)
		}
	}
	return out, nil
}

// StatsAll fetches statistics from every live node.
func (rt *Router) StatsAll(ctx context.Context) (map[string]*kvnet.StatsInfo, error) {
	var (
		mu  sync.Mutex
		out = make(map[string]*kvnet.StatsInfo)
	)
	errs := rt.forAll(ctx, func(actx context.Context, node string, c *kvnet.Client) error {
		st, err := c.Stats(actx)
		if err != nil {
			return err
		}
		mu.Lock()
		out[node] = st
		mu.Unlock()
		return nil
	})
	for node, err := range errs {
		if err != nil {
			return out, fmt.Errorf("cluster: stats %s: %w", node, err)
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
		for _, node := range rt.health.dueProbes(rt.nodeNames(), time.Now()) {
			wg.Add(1)
			go func(node string) {
				defer wg.Done()
				rt.probe(node)
			}(node)
		}
		wg.Wait()
	}
}

// probe pings one node and records the verdict.
func (rt *Router) probe(node string) {
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
