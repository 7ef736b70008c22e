package kvnet

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/kverr"
	"repro/internal/lsm"
)

// srvStream is one open scan: a goroutine running the engine's range scan,
// parked inside the scan's callback whenever its credit is spent. When the
// goroutine ends the state joins its connection's idle list and serves a
// later stream, so opening, parking and closing streams allocates nothing.
type srvStream struct {
	c *srvConn
	// run and emit are serve and entry bound once, so starting the goroutine
	// and handing the engine its callback allocate nothing.
	run  func()
	emit func(key, value []byte) error
	// grant carries the client's next grant to the parked scan (one per
	// chunk, so one slot). A cancel sets cancelled, which the callback
	// checks on every entry, and wakes a parked scan. Both are signalled
	// only under c.mu while the stream is registered.
	grant     chan uint64
	wake      chan struct{}
	cancelled atomic.Bool
	lease     *time.Timer // stopped whenever the scan is not parked

	tag        uint32
	snap       *srvSnap // the snapshot it reads through; nil for the live store
	start, end []byte   // the request's bounds, copied into bounds
	bounds     []byte
	out        *frameBuf // the frame being built
	body       int       // where the current chunk's entries start in out
	credit     int
}

// srvSnap is one snapshot handle. lastUsed (unix nanoseconds) is refreshed
// by every frame naming the handle; expiry re-checks it, so a touch costs
// one atomic store rather than a timer reset.
type srvSnap struct {
	view     lsm.SnapshotView
	lastUsed atomic.Int64
	timer    *time.Timer
}

// errLeaseExpired ends a stream whose client went quiet.
var errLeaseExpired = fmt.Errorf("kvnet: lease expired: %w", kverr.ErrClosed)

// errTooManyHandles refuses a stream or snapshot past maxHandles. It has no
// sentinel: nothing a caller could match on would tell it more than the
// text does — close some iterators.
var errTooManyHandles = fmt.Errorf("kvnet: more than %d streams and snapshots open on one connection", maxHandles)

// openStream registers OpStream req under tag and starts the goroutine
// serving it. The stream copies what it keeps of req, so the caller's frame
// buffer is free again when it returns.
func (c *srvConn) openStream(tag uint32, req *Request) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var snap *srvSnap
	switch {
	case c.streams[tag] != nil:
		return fmt.Errorf("kvnet: tag %d already names an open stream: %w", tag, ErrProtocol)
	case len(c.streams)+len(c.snaps) >= maxHandles:
		return errTooManyHandles
	case req.Handle != 0:
		if snap = c.snaps[req.Handle]; snap == nil {
			return fmt.Errorf("kvnet: snapshot %d released or expired: %w", req.Handle, kverr.ErrClosed)
		}
		snap.touch()
	}
	var st *srvStream
	if n := len(c.idle); n > 0 {
		st, c.idle = c.idle[n-1], c.idle[:n-1]
	} else {
		st = &srvStream{c: c, grant: make(chan uint64, 1), wake: make(chan struct{}, 1), lease: time.NewTimer(time.Hour), bounds: []byte{}}
		st.run, st.emit = st.serve, st.entry
		st.lease.Stop()
	}
	st.tag, st.snap, st.credit = tag, snap, int(min(req.Credit, maxCredit))
	// bounds is never nil, so an empty but present End stays an empty bound.
	st.bounds = append(append(st.bounds[:0], req.Start...), req.End...)
	st.start, st.end = st.bounds[:len(req.Start):len(req.Start)], st.bounds[len(req.Start):]
	if req.End == nil {
		st.end = nil
	}
	c.streams[tag] = st
	c.busy.Add(1)
	c.s.openStreams.Add(1)
	c.wg.Add(1)
	go st.run()
	return nil
}

// serve runs one scan for the whole stream, under the connection's
// context. Entries are encoded into the outgoing chunk as the scan's
// callback receives them; when the next one would overrun the credit the
// chunk is sent and the callback parks — view, iterators and position all
// stay where they are — until the client grants more, cancels, or goes
// quiet past the lease. A chunk and the final frame differ only in the
// status byte, so every frame starts as a chunk and the last is re-stamped.
func (st *srvStream) serve() {
	c := st.c
	st.out = frameBufPool.Get().(*frameBuf)
	st.out.b = append(beginFrame(st.out.b, st.tag), byte(StatusChunk), 'E')
	st.body = len(st.out.b)
	var err error
	if st.snap != nil {
		// The iterator takes table references of its own.
		err = lsm.RangeOver(c.ctx, st.snap.view, st.start, st.end, st.emit)
	} else {
		err = c.s.db.RangeContext(c.ctx, st.start, st.end, st.emit)
	}
	switch {
	case st.cancelled.Load(), c.ctx.Err() != nil, err == errLeaseExpired:
		// Cancelled by tag, the connection is going away, or the client
		// went quiet: nobody is listening for this stream's last frame. (A
		// client that does come back learns of the expiry from the answer
		// to its grant.)
	case err != nil:
		c.reply(st.tag, st.out, errResponse(err))
	default:
		st.out.b[frameHeaderLen] = byte(StatusOK)
		c.writeFrame(st.out.b)
	}
	st.finish()
}

// entry is the scan's callback.
func (st *srvStream) entry(k, v []byte) error {
	if st.cancelled.Load() {
		return context.Canceled
	}
	if used := len(st.out.b) - st.body; used > 0 && used+entrySize(k, v) > st.credit {
		if err := st.park(); err != nil {
			return err
		}
	}
	st.out.b = appendEntry(st.out.b, k, v)
	return nil
}

// park sends the chunk and waits, with the lease running, for a grant.
func (st *srvStream) park() error {
	c := st.c
	c.writeFrame(st.out.b)
	st.out.b = append(beginFrame(st.out.b, st.tag), byte(StatusChunk), 'E')
	st.body = len(st.out.b)
	st.lease.Reset(c.s.lease)
	var err error
	select {
	case n := <-st.grant:
		st.credit = int(min(n, maxCredit))
		st.snap.touch()
	case <-st.wake:
		err = context.Canceled
	case <-c.ctx.Done():
		err = c.ctx.Err()
	case <-st.lease.C:
		if c.s.onLeaseExpiry != nil {
			c.s.onLeaseExpiry(st)
		}
		c.s.leaseExpiries.Add(1)
		err = errLeaseExpired
	}
	// Stopped and drained, by the pre-Go 1.23 timer rules: a firing that
	// lost the race above must not cut short a later park.
	if !st.lease.Stop() {
		select {
		case <-st.lease.C:
		default:
		}
	}
	return err
}

// finish unregisters the stream and returns its state to the idle list. A
// grant still in the slot raced the end — the lease fired as it came, or it
// arrived after the last park — and is answered as a grant to a reaped
// stream, so no client waits for a frame that will never come.
func (st *srvStream) finish() {
	c := st.c
	c.mu.Lock()
	delete(c.streams, st.tag)
	c.mu.Unlock()
	// Unregistered, the stream is out of grant's and cancelTag's reach:
	// what its slots hold now is all they will hold.
	select {
	case <-st.grant:
		c.reply(st.tag, st.out, errResponse(errLeaseExpired))
	default:
	}
	select {
	case <-st.wake:
	default:
	}
	st.cancelled.Store(false)
	frameBufPool.Put(st.out)
	st.out, st.snap = nil, nil
	c.s.openStreams.Add(-1)
	c.busy.Add(-1)
	c.mu.Lock()
	if len(c.idle) < maxIdleStreams && cap(st.bounds) <= retainLimit {
		c.idle = append(c.idle, st)
	}
	c.mu.Unlock()
	c.wg.Done()
}

// grant passes a credit frame to the stream under tag. A grant for a stream
// that is gone — reaped by its lease, since the client only grants to a
// stream it believes parked — is an error the caller reports under the tag;
// a second grant while one is still waiting breaks the protocol.
func (c *srvConn) grant(tag uint32, credit uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.streams[tag]
	if st == nil {
		return errLeaseExpired
	}
	select {
	case st.grant <- credit:
		return nil
	default:
		return fmt.Errorf("kvnet: second grant to a stream that has not used the first: %w", ErrProtocol)
	}
}

// openSnapshot pins a view of the engine and registers it under a fresh
// handle, with the lease clock running.
func (c *srvConn) openSnapshot() (uint64, error) {
	sn, ok := c.s.db.(snapshotter)
	if !ok {
		return 0, fmt.Errorf("kvnet: served engine has no snapshots: %w", kverr.ErrConfig)
	}
	view, err := sn.SnapshotView()
	if err != nil {
		return 0, err
	}
	snap := &srvSnap{view: view}
	snap.touch()
	c.mu.Lock()
	if len(c.streams)+len(c.snaps) >= maxHandles {
		c.mu.Unlock()
		view.Release()
		return 0, errTooManyHandles
	}
	c.nextHandle++
	handle := c.nextHandle
	c.snaps[handle] = snap
	snap.timer = time.AfterFunc(c.s.lease, func() { c.expireSnapshot(handle, snap) })
	c.mu.Unlock()
	c.busy.Add(1)
	c.s.openSnapshots.Add(1)
	return handle, nil
}

// expireSnapshot runs when snap's lease timer fires: if a frame named the
// handle since the timer was set it re-arms for the remainder, otherwise
// the handle is reaped.
func (c *srvConn) expireSnapshot(handle uint64, snap *srvSnap) {
	if idle := time.Since(time.Unix(0, snap.lastUsed.Load())); idle < c.s.lease {
		c.mu.Lock()
		if c.snaps[handle] == snap {
			snap.timer.Reset(c.s.lease - idle)
		}
		c.mu.Unlock()
		return
	}
	if c.dropSnapshot(handle) {
		c.s.leaseExpiries.Add(1)
	}
}

// dropSnapshot unregisters handle and releases its view, reporting whether
// the handle was still held.
func (c *srvConn) dropSnapshot(handle uint64) bool {
	c.mu.Lock()
	snap := c.snaps[handle]
	delete(c.snaps, handle)
	c.mu.Unlock()
	if snap == nil {
		return false
	}
	snap.timer.Stop()
	snap.view.Release()
	c.s.openSnapshots.Add(-1)
	c.busy.Add(-1)
	return true
}

// releaseSnapshots drops every handle the connection still holds, at
// teardown.
func (c *srvConn) releaseSnapshots() {
	c.mu.Lock()
	handles := make([]uint64, 0, len(c.snaps))
	for h := range c.snaps {
		handles = append(handles, h)
	}
	c.mu.Unlock()
	for _, h := range handles {
		c.dropSnapshot(h)
	}
}

// snapshotGet is a point read through handle. A Release or expiry racing
// the read is safe: the view's own lock makes it answer ErrClosed.
func (c *srvConn) snapshotGet(handle uint64, key []byte) ([]byte, error) {
	c.mu.Lock()
	snap := c.snaps[handle]
	c.mu.Unlock()
	if snap == nil {
		return nil, fmt.Errorf("kvnet: snapshot %d released or expired: %w", handle, kverr.ErrClosed)
	}
	snap.touch()
	return snap.view.Get(key)
}

// touch records that a frame named the snapshot; a nil receiver (a stream
// over the live store) is a no-op.
func (sn *srvSnap) touch() {
	if sn != nil {
		sn.lastUsed.Store(time.Now().UnixNano())
	}
}
