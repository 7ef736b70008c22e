package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/keyhash"
	"repro/internal/kverr"
	"repro/internal/kvnet"
)

// quorumOp is the state of one quorum operation — a Get, or a Write of one
// or more keys — and of every replica request ("leg") it starts. Ops are
// pooled per router and reference counted: the caller holds one reference
// and each leg or repair in flight holds one, because a write returns at
// the W-th ack and a read at the R-th answer while the slowest replica's
// request, still reading the op's key and record bytes, runs on. The last
// reference out recycles the op, so in steady state an operation allocates
// nothing of its own: legs live in an array indexed by ring node id, the
// keys and encoded records in one buffer, results arrive on a channel the
// op keeps, and one deadline, re-armed per op, serves every leg's first
// attempt.
type quorumOp struct {
	rt   *Router
	refs atomic.Int32

	// ctx is the caller's; first is ctx bounded by RequestTimeout, shared by
	// every leg's first attempt (see Router.doCall). For a caller context
	// that is never cancelled — the common case — first is the op's own
	// deadline; for one that can be, first is derived with
	// context.WithTimeout so that the cancellation propagates, and cancel
	// releases it.
	ctx      context.Context
	first    context.Context
	cancel   context.CancelFunc
	deadline opDeadline

	// decided is set when the caller stops waiting: the op has its verdict.
	// A failed leg retries only before that, and parks a hint after it: a
	// retry nobody waits for would only cost traffic. (Correctness does not
	// depend on it: a node keeps the highest stamp it is sent, whatever
	// order writes arrive in — see kvnet.OpVersionedWrite.)
	decided atomic.Bool

	// buf owns every key and encoded record of the operation, back to
	// back; batch slices it, one entry per logical write (a read has one
	// entry, of which only Key is set). Nothing here aliases the caller's
	// memory, which it may reuse the moment the call returns.
	buf   []byte
	batch []kvnet.BatchOp

	// replicas holds each write's replica set, width ids apiece; acks and
	// fails count each write's verdicts so far.
	replicas []int
	width    int
	acks     []int
	fails    []int

	read    bool
	legs    []leg          // by ring node id
	results chan int       // node id of a finished leg; sized so no leg ever blocks
	hedge   *time.Timer    // read hedging; created on first use, then reused
	repairs sync.WaitGroup // the repairs a divergent read waits for
	winner  uint64         // the version those repairs install
}

// leg is one node's share of a quorum operation.
type leg struct {
	op   *quorumOp
	node int
	// runFn is the method value run, bound once when the op is built: a go
	// statement on it starts the leg without allocating a closure.
	runFn func()

	// writes indexes op.batch: the writes this node is sent, as share, and
	// the ones parked as hints without an attempt because the failure
	// detector has the node down, as skipped.
	writes  []int
	share   []kvnet.BatchOp
	skipped []kvnet.BatchOp

	// The leg's verdict, written by its goroutine before it reports on
	// op.results: err, and for a read the record as the replica stores it
	// (Version 0 when it has never seen the key) in val, the leg's buffer.
	// reported is the collector's note that it has received the report and
	// may read them.
	rec      Record
	val      []byte
	err      error
	reported bool
}

// answered reports whether the collector holds a successful answer.
func (l *leg) answered() bool { return l.reported && l.err == nil }

func newQuorumOp(rt *Router) *quorumOp {
	o := &quorumOp{rt: rt, legs: make([]leg, len(rt.conns)), results: make(chan int, len(rt.conns))}
	for node := range o.legs {
		l := &o.legs[node]
		l.op, l.node, l.runFn = o, node, l.run
	}
	return o
}

// acquireOp returns a recycled op holding the caller's reference.
func (rt *Router) acquireOp(ctx context.Context) *quorumOp {
	o := rt.ops.Get().(*quorumOp)
	o.refs.Store(1)
	o.ctx = ctx
	if ctx.Done() == nil {
		o.deadline.arm(ctx, rt.opts.RequestTimeout)
		o.first = &o.deadline
	} else {
		o.first, o.cancel = context.WithTimeout(ctx, rt.opts.RequestTimeout)
	}
	return o
}

func (o *quorumOp) retain() { o.refs.Add(1) }

// finish drops the caller's reference once it has its answer.
func (o *quorumOp) finish() {
	o.decided.Store(true)
	o.release()
}

// release drops one reference; the last one recycles the op. By then
// every leg has reported, so nothing can send on results or read buf.
func (o *quorumOp) release() {
	if o.refs.Add(-1) != 0 {
		return
	}
	if o.cancel != nil {
		o.cancel()
	} else {
		o.deadline.disarm()
	}
	o.ctx, o.first, o.cancel = nil, nil, nil
	if o.hedge != nil {
		o.hedge.Stop() // left armed it fires a hedge delay from now, waking a P for nothing
	}
	for len(o.results) > 0 {
		<-o.results
	}
	for i := range o.legs {
		l := &o.legs[i]
		l.writes, l.share, l.skipped = l.writes[:0], l.share[:0], l.skipped[:0]
		l.rec, l.err, l.reported = Record{}, nil, false
		if cap(l.val) > 1<<20 { // kvnet's workers' bound: a huge value's buffer goes
			l.val = nil
		}
	}
	o.read = false
	o.decided.Store(false)
	clear(o.batch) // drops the last references into a buffer that may have been outgrown
	o.buf, o.batch, o.replicas, o.acks, o.fails = o.buf[:0], o.batch[:0], o.replicas[:0], o.acks[:0], o.fails[:0]
	o.rt.ops.Put(o)
}

// opDeadline is a quorum op's own context for its legs' first attempts:
// its parent, which is never cancelled, bounded by RequestTimeout. It lives
// in the pooled op with its timer and is re-armed for each op, so an op
// allocates no context, timer or channel; only a deadline that fires costs
// a channel, since a closed one cannot be reopened and the next arm
// replaces it.
//
// Recycling is safe because every leg that reads it has reported before
// the op is released, and the one thing that outlives an op — its timer's
// callback, started just as the op finished and still running — checks
// under mu that the deadline it would expire has been reached, which is
// never true of the next op's.
type opDeadline struct {
	parent context.Context
	timer  *time.Timer // runs expire; created by the first arm
	mu     sync.Mutex
	at     time.Time
	done   chan struct{} // closed at expiry
	fired  bool
}

// arm starts the deadline timeout from now for a new op.
func (d *opDeadline) arm(parent context.Context, timeout time.Duration) {
	d.mu.Lock()
	if d.done == nil || d.fired {
		d.done, d.fired = make(chan struct{}), false
	}
	d.parent, d.at = parent, time.Now().Add(timeout)
	d.mu.Unlock()
	if d.timer == nil {
		d.timer = time.AfterFunc(timeout, d.expire)
	} else {
		d.timer.Reset(timeout)
	}
}

// disarm stops the timer as the op is released.
func (d *opDeadline) disarm() {
	d.timer.Stop()
	d.parent = nil
}

func (d *opDeadline) expire() {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.fired && !time.Now().Before(d.at) {
		d.fired = true
		close(d.done)
	}
}

func (d *opDeadline) Deadline() (time.Time, bool) { return d.at, true }
func (d *opDeadline) Done() <-chan struct{}       { return d.done }
func (d *opDeadline) Value(key any) any           { return d.parent.Value(key) }

func (d *opDeadline) Err() error {
	select {
	case <-d.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// start launches node's leg in the background.
func (o *quorumOp) start(node int) {
	o.retain()
	o.rt.bg.Add(1)
	go o.legs[node].runFn()
}

// run executes the leg and reports it. A transport-level failure gets one
// paced re-attempt (Options.RetryBackoff) before the error counts against
// the quorum, unless the op is decided by the end of the pause: without
// the retry a single hiccup on a live replica while another node is down
// fails an otherwise healthy quorum, and once the op is decided nothing
// waits for it (see decided).
func (l *leg) run() {
	o, rt := l.op, l.op.rt
	defer rt.bg.Done()
	defer o.release()
	err := rt.doCall(o.ctx, o.first, l.node, l)
	if err != nil && !terminalReplicaErr(err) && rt.opts.RetryBackoff.Sleep(o.ctx, 0) == nil && !o.decided.Load() {
		err = rt.doCall(o.ctx, nil, l.node, l)
	}
	if err != nil && !o.read && o.ctx.Err() == nil {
		// Park a hint only when the replica, not the caller's context, is
		// at fault: a cancelled caller got an error back and expects the
		// write not to converge.
		rt.parkHintFor(l.node, l.share)
	}
	l.err = err
	o.results <- l.node
}

// call is the leg's request: its share of the write, versioned so the node
// keeps the newer record if a later write got there first, or the read.
func (l *leg) call(ctx context.Context, c *kvnet.Client) error {
	if !l.op.read {
		_, err := c.WriteVersioned(ctx, l.share)
		return err
	}
	var err error
	if l.val, err = c.AppendGet(ctx, l.val[:0], l.op.batch[0].Key); err != nil {
		if errors.Is(err, kverr.ErrNotFound) {
			l.rec = Record{} // version 0: the replica has never seen the key
			return nil
		}
		return err
	}
	l.rec, err = decodeRecord(l.val)
	return err
}

// stage copies the batch into the op's own buffer, stamping each write
// with the next version, and resolves every write's replica set.
func (o *quorumOp) stage(batch []kvnet.BatchOp) {
	rt := o.rt
	size := 0
	for i := range batch {
		size += len(batch[i].Key) + recordHdrLen
		if !batch[i].Delete {
			size += len(batch[i].Value)
		}
	}
	if cap(o.buf) < size {
		o.buf = make([]byte, 0, size) // sized up front: batch slices buf as it fills
	}
	o.width = min(rt.opts.ReplicationFactor, len(rt.conns))
	for i := range batch {
		in := &batch[i]
		k := len(o.buf)
		o.buf = append(o.buf, in.Key...)
		v := len(o.buf)
		if !o.read {
			rec := Record{Version: rt.clock.Next(), Tombstone: in.Delete}
			if !in.Delete {
				rec.Value = in.Value
			}
			o.buf = rec.AppendTo(o.buf)
		}
		o.batch = append(o.batch, kvnet.BatchOp{Key: o.buf[k:v:v], Value: o.buf[v:len(o.buf):len(o.buf)]})
		o.replicas = rt.ring.AppendReplicaIDs(o.replicas, in.Key, o.width)
		o.acks, o.fails = append(o.acks, 0), append(o.fails, 0)
	}
}

// replicaSet returns write i's replica ids.
func (o *quorumOp) replicaSet(i int) []int { return o.replicas[i*o.width : (i+1)*o.width] }

// liveIn counts the replicas the failure detector has up.
func (o *quorumOp) liveIn(replicas []int) int {
	live := 0
	for _, node := range replicas {
		if !o.rt.health.isDown(node) {
			live++
		}
	}
	return live
}

// write replicates the batch: each write fans out to its full replica set
// and the call succeeds once every write has W acks. Replicas the failure
// detector considers down are not attempted (unless a write cannot reach
// quorum without them, covering detector false positives); their share is
// parked as a hint immediately. Replicas that fail or straggle after
// quorum get their share parked too, so a successful return still
// converges to N live copies.
func (o *quorumOp) write(batch []kvnet.BatchOp) error {
	rt := o.rt
	o.stage(batch)
	need := min(rt.opts.WriteQuorum, o.width)
	for i := range o.batch {
		replicas := o.replicaSet(i)
		live := o.liveIn(replicas)
		for _, node := range replicas {
			l := &o.legs[node]
			// A down replica is attempted anyway while the live replicas
			// have no failure slack (live <= need): the detector may be
			// wrong — or a beat behind a node that just recovered — and in
			// the slackless regime a single live-replica hiccup would fail
			// an otherwise reachable quorum. Only with spare live replicas
			// is the down node skipped outright, so a blackholed peer costs
			// nothing. Quorum still comes first: the write acknowledges on
			// the first need acks, never waiting on the presumed-dead node.
			if !rt.health.isDown(node) || live <= need {
				l.writes = append(l.writes, i)
				l.share = append(l.share, o.batch[i])
			} else {
				l.skipped = append(l.skipped, o.batch[i])
				o.fails[i]++
			}
		}
	}
	pending, unmet := 0, len(o.batch)
	for node := range o.legs {
		l := &o.legs[node]
		rt.parkHintFor(node, l.skipped)
		if len(l.share) > 0 {
			o.start(node)
			pending++
		}
	}
	for i := range o.batch {
		if o.width-o.fails[i] < need {
			return fmt.Errorf("cluster: write quorum unreachable (replicas down): %w", kverr.ErrUnavailable)
		}
	}
	for ; pending > 0; pending-- {
		select {
		case node := <-o.results:
			l := &o.legs[node]
			l.reported = true
			for _, i := range l.writes {
				if l.err != nil {
					if o.fails[i]++; o.width-o.fails[i] < need {
						return o.quorumFailed("write")
					}
				} else if o.acks[i]++; o.acks[i] == need {
					unmet--
				}
			}
			if unmet == 0 {
				return nil
			}
		case <-o.ctx.Done():
			return fmt.Errorf("cluster: write abandoned: %w", o.ctx.Err())
		}
	}
	return o.quorumFailed("write")
}

// quorumFailed builds the error of an operation that ran out of replicas,
// from the verdicts collected so far.
func (o *quorumOp) quorumFailed(what string) error {
	var skipped []string
	var errs []error
	for node := range o.legs {
		l, name := &o.legs[node], o.rt.ring.names[node]
		if len(l.skipped) > 0 {
			skipped = append(skipped, name)
		}
		if l.reported && l.err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", name, l.err))
		}
	}
	cause := errors.Join(errs...)
	if cause == nil {
		cause = fmt.Errorf("cluster: insufficient replicas")
	}
	return fmt.Errorf("cluster: %s quorum failed (skipped down: %v): %w (replica errors: %w)", what, skipped, kverr.ErrUnavailable, cause)
}

// rotation maps the read counter to a starting offset into a replica set
// of the given width, by hashing it. Over any run of reads the offsets
// come out evenly, so the replicas share the read load and each is
// compared with the others regularly. Counting round-robin would be
// exactly even, but a caller that reads a fixed set of keys in a loop
// whose length is a multiple of width would then see every key pinned to
// one offset — and the replica outside it never compared; hashed, no
// stride lines up.
func rotation(seq uint64, width int) int { return int(keyhash.Mix64(seq) % uint64(width)) }

// get reads key from R of its N replicas and resolves the newest version.
//
// Which R rotates from read to read (see rotation). Live replicas come
// first; ones the failure detector has down are asked only once the live
// ones cannot make up R — the rule writes follow for a quorum without
// slack, since the detector may be wrong or a beat behind a restart. A leg that fails,
// or has said nothing for RetryBackoff.Base, is hedged: the next replica
// in line is asked as well, and whichever R answer first decide the read,
// so a replica that has gone silent but is not demoted yet costs one
// hedge delay rather than RequestTimeout.
//
// R+W > N puts at least one replica of every acknowledged write among any
// R that answer, so the newest stamp among them is at least as new as the
// last acknowledged write: every acked write is visible to the next read.
// When the R stamps agree — the common case — that is the whole read.
// When they differ, the stale replicas that answered are rewritten with
// the winner before the read returns (by a versioned write, so a newer
// write that landed meanwhile is not regressed), and the replicas that
// were not asked are checked and repaired in the background. A value
// that is returned therefore sits on R replicas, and with 2R > N any
// later read meets one of them: a client that has read a value never
// reads an older one afterwards, even when that value came from a write
// still in flight or one that failed to reach W. What is not promised for
// such unacknowledged writes is that they are seen at all, or that two
// clients agree on them before one of them has read it.
func (o *quorumOp) get(key []byte) (Record, error) {
	rt := o.rt
	o.read = true
	o.stage([]kvnet.BatchOp{{Key: key}})
	need := min(rt.opts.ReadQuorum, o.width)

	// Order the candidates in place: the replica set rotated, live ones
	// ahead of down ones.
	order := o.replicaSet(0)
	rotate(order, rotation(rt.readSeq.Add(1), o.width))
	live := 0
	for i, node := range order {
		if !rt.health.isDown(node) {
			copy(order[live+1:i+1], order[live:i])
			order[live] = node
			live++
		}
	}

	next := 0
	for ; next < need; next++ {
		o.start(order[next])
	}
	rt.reads.Add(1)
	rt.readLegs.Add(uint64(need))
	var hedge <-chan time.Time
	if next < len(order) {
		hedge = o.armHedge()
	}
	for pending, answers := need, 0; answers < need; {
		if pending == 0 {
			return Record{}, o.quorumFailed("read")
		}
		select {
		case node := <-o.results:
			pending--
			l := &o.legs[node]
			l.reported = true
			if l.err == nil {
				answers++
				continue
			}
		case <-hedge:
			hedge = nil
		case <-o.ctx.Done():
			return Record{}, fmt.Errorf("cluster: read abandoned: %w", o.ctx.Err())
		}
		// A leg failed or the hedge delay passed: widen by one replica.
		if next < len(order) {
			o.start(order[next])
			next++
			pending++
			rt.readLegs.Add(1)
			rt.hedgedReads.Add(1)
			if hedge == nil && next < len(order) {
				hedge = o.armHedge()
			}
		}
	}

	var winner Record
	found, agree := false, true
	for _, node := range order[:next] {
		l := &o.legs[node]
		if !l.answered() {
			continue
		}
		agree = agree && (!found || l.rec.Version == winner.Version)
		if !found || l.rec.Version > winner.Version {
			winner = l.rec
		}
		found = true
	}
	rt.clock.Observe(winner.Version)
	if !agree {
		o.repair(winner, order)
	}
	return winner, nil
}

// rotate rotates s left by k.
func rotate(s []int, k int) {
	for ; k > 0; k-- {
		first := s[0]
		copy(s, s[1:])
		s[len(s)-1] = first
	}
}

// armHedge starts the hedge delay on the op's reusable timer.
func (o *quorumOp) armHedge() <-chan time.Time {
	d := o.rt.opts.RetryBackoff.Base
	if o.hedge == nil {
		o.hedge = time.NewTimer(d)
		return o.hedge.C
	}
	if !o.hedge.Stop() {
		select {
		case <-o.hedge.C:
		default:
		}
	}
	o.hedge.Reset(d)
	return o.hedge.C
}

// repair brings key's replicas up to winner after a read found them
// divergent. The replicas that answered stale are repaired before it
// returns — the read's caller is about to be told winner, and must find
// it on R replicas from then on — and the rest (not asked, or silent) in
// the background, under the router's context rather than the caller's. A
// repair is one versioned write: a node that has meanwhile taken a newer
// write keeps it.
func (o *quorumOp) repair(winner Record, order []int) {
	rt := o.rt
	// The winning record goes into the op's buffer behind the key: the
	// background repairs outlive the call, and the caller owns the value
	// it is handed. Legs still in flight keep reading the key through
	// batch[0], which this leaves alone even if buf has to grow.
	o.buf = winner.AppendTo(o.buf[:len(o.batch[0].Key)])

	for _, node := range order {
		switch l := &o.legs[node]; {
		case l.answered() && l.rec.Version < winner.Version:
			o.repairs.Add(1)
			o.retain()
			rt.bg.Add(1)
			go o.repairNode(o.ctx, node, true)
		case !l.answered() && !rt.health.isDown(node):
			o.retain()
			rt.bg.Add(1)
			go o.repairNode(rt.baseCtx, node, false)
		}
	}
	o.repairs.Wait()
}

// repairNode writes the winning record (in buf, behind the key) to node as
// a versioned write, which the node drops if it already holds that version
// or a newer one: a quorum write that landed since the read answered is
// never regressed.
func (o *quorumOp) repairNode(ctx context.Context, node int, awaited bool) {
	rt := o.rt
	defer rt.bg.Done()
	defer o.release()
	if awaited {
		defer o.repairs.Done()
	}
	key := o.batch[0].Key
	applied := 0
	err := rt.do(ctx, node, func(actx context.Context, c *kvnet.Client) (err error) {
		applied, err = c.WriteVersioned(actx, []kvnet.BatchOp{{Key: key, Value: o.buf[len(key):]}})
		return err
	})
	if err == nil && applied > 0 {
		rt.readRepairs.Add(1)
	}
}
