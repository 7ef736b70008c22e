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
// parked inside the scan's callback whenever its credit is spent.
type srvStream struct {
	cancel context.CancelFunc
	// credit carries the client's next grant to the parked scan. The
	// protocol allows one grant per chunk, so one slot is all it needs.
	credit chan uint64
	snap   *srvSnap // the snapshot it reads through; nil for the live store
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

// openStream starts the goroutine serving OpStream req under tag; req's
// byte fields alias fb, which the goroutine returns to the pool.
func (c *srvConn) openStream(tag uint32, req Request, fb *frameBuf) {
	ctx, cancel := context.WithCancel(c.ctx)
	st := &srvStream{cancel: cancel, credit: make(chan uint64, 1)}
	scan := c.s.db.RangeContext
	var err error
	c.mu.Lock()
	switch {
	case c.streams[tag] != nil:
		err = fmt.Errorf("kvnet: tag %d already names an open stream: %w", tag, ErrProtocol)
	case len(c.streams)+len(c.snaps) >= maxHandles:
		err = errTooManyHandles
	case req.Handle != 0:
		if st.snap = c.snaps[req.Handle]; st.snap == nil {
			err = fmt.Errorf("kvnet: snapshot %d released or expired: %w", req.Handle, kverr.ErrClosed)
		} else {
			scan = st.snap.rangeContext
		}
	}
	if err == nil {
		c.streams[tag] = st
	}
	c.mu.Unlock()
	if err != nil {
		cancel()
		c.reply(tag, fb, errResponse(err))
		frameBufPool.Put(fb)
		return
	}
	c.busy.Add(1)
	c.s.openStreams.Add(1)
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.runStream(ctx, tag, st, scan, req)
		cancel()
		c.mu.Lock()
		delete(c.streams, tag)
		c.mu.Unlock()
		c.s.openStreams.Add(-1)
		c.busy.Add(-1)
		frameBufPool.Put(fb)
	}()
}

// rangeFunc is Engine.RangeContext's shape: the live store's, or a
// snapshot's.
type rangeFunc func(ctx context.Context, start, end []byte, fn func(key, value []byte) error) error

// runStream runs one scan for the whole stream. Entries are encoded into
// the outgoing chunk as the scan's callback receives them; when the next
// one would overrun the credit the chunk is sent and the callback parks —
// view, iterators and position all stay where they are — until the client
// grants more, cancels, or goes quiet past the lease.
func (c *srvConn) runStream(ctx context.Context, tag uint32, st *srvStream, scan rangeFunc, req Request) {
	out := frameBufPool.Get().(*frameBuf)
	defer frameBufPool.Put(out)
	// A chunk and the final frame differ only in the status byte, so every
	// frame starts as a chunk and the last one is re-stamped.
	begin := func() int {
		out.b = append(beginFrame(out.b, tag), byte(StatusChunk), 'E')
		return len(out.b)
	}
	body := begin()
	credit := int(min(req.Credit, maxCredit))
	var start []byte
	if len(req.Start) > 0 {
		start = req.Start
	}
	err := scan(ctx, start, req.End, func(k, v []byte) error {
		if used := len(out.b) - body; used > 0 && used+entrySize(k, v) > credit {
			c.writeFrame(out.b)
			body = begin()
			lease := time.NewTimer(c.s.lease)
			defer lease.Stop()
			select {
			case n := <-st.credit:
				credit = int(min(n, maxCredit))
				st.snap.touch()
			case <-ctx.Done():
				return ctx.Err()
			case <-lease.C:
				c.s.leaseExpiries.Add(1)
				return errLeaseExpired
			}
		}
		out.b = appendEntry(out.b, k, v)
		return nil
	})
	switch {
	case ctx.Err() != nil, err == errLeaseExpired:
		// Cancelled by tag, the connection is going away, or the client
		// went quiet: nobody is listening for this stream's last frame. (A
		// client that does come back learns of the expiry from the answer
		// to its grant.)
	case err != nil:
		c.reply(tag, out, errResponse(err))
	default:
		out.b[frameHeaderLen] = byte(StatusOK)
		c.writeFrame(out.b)
	}
}

// grant passes a credit frame to the stream under tag. A grant for a stream
// that is gone — reaped by its lease, since the client only grants to a
// stream it believes parked — is an error the caller reports under the tag;
// a second grant while one is still waiting breaks the protocol.
func (c *srvConn) grant(tag uint32, credit uint64) error {
	c.mu.Lock()
	st := c.streams[tag]
	c.mu.Unlock()
	if st == nil {
		return errLeaseExpired
	}
	select {
	case st.credit <- credit:
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

// rangeContext scans the snapshot with Engine.RangeContext's contract. The
// iterator retains its own table references, released when the scan ends.
func (sn *srvSnap) rangeContext(ctx context.Context, start, end []byte, fn func(key, value []byte) error) error {
	sn.touch()
	return lsm.RangeOver(ctx, sn.view, start, end, fn)
}
