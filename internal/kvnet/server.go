package kvnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kverr"
	"repro/internal/lsm"
)

// Engine is the storage surface the server exposes over the wire. Both
// the single-partition engine (*lsm.DB) and the sharded store
// (*store.Store) satisfy it, so a node can serve one shard or many behind
// the same protocol. Context-taking methods let the server abort in-flight
// work — a scan mid-drain, a write parked in the commit queue — when the
// client cancels the request, the connection drops or the server shuts
// down.
type Engine interface {
	PutContext(ctx context.Context, key, value []byte) error
	GetContext(ctx context.Context, key []byte) ([]byte, error)
	DeleteContext(ctx context.Context, key []byte) error
	WriteContext(ctx context.Context, b *lsm.WriteBatch) error
	RangeContext(ctx context.Context, start, end []byte, fn func(key, value []byte) error) error
	Flush() error
	MajorCompact(strategy string, k int, seed int64) (*lsm.CompactionResult, error)
	Stats() lsm.Stats
}

// snapshotter is the optional capability behind OpSnapshot; *lsm.DB and
// *store.Store have it. An Engine without it is served all the same and
// answers OpSnapshot with kverr.ErrConfig.
type snapshotter interface {
	SnapshotView() (lsm.SnapshotView, error)
}

// Default connection deadlines; see the Server fields of the same names.
const (
	DefaultIdleTimeout  = 5 * time.Minute
	DefaultWriteTimeout = time.Minute
)

// Server serves one storage engine to many concurrent connections. Each
// connection has a reader goroutine, up to maxInFlight workers executing
// unary requests, and one goroutine per open stream; the engine provides
// its own synchronization.
type Server struct {
	db Engine

	// IdleTimeout bounds how long a connection with nothing in flight and
	// no open stream or snapshot may sit without sending a frame; a peer
	// that died without closing its socket is reaped instead of pinning
	// its goroutines forever. Zero disables. Set before Serve.
	IdleTimeout time.Duration
	// WriteTimeout bounds writing one frame; a peer that stopped reading
	// cannot wedge the connection's workers in a blocked send for longer.
	// Zero disables. Set before Serve.
	WriteTimeout time.Duration

	// lease is handleLease; tests shorten it. onLeaseExpiry (tests only) runs
	// in a stream's goroutine as its lease fires, before it unregisters.
	lease         time.Duration
	onLeaseExpiry func(*srvStream)

	// baseCtx is cancelled by Close; every request executes under a
	// context derived from it, so in-flight scans and parked writes abort
	// at server shutdown.
	baseCtx context.Context
	cancel  context.CancelFunc

	inFlight      atomic.Int64
	inFlightHigh  atomic.Int64
	openStreams   atomic.Int64
	openSnapshots atomic.Int64
	leaseExpiries atomic.Uint64

	// stamps serialise versioned writes per key, and floor lets most of
	// them skip reading the stamp they must beat (see writeVersioned).
	stamps stampLocks
	floor  stampFloor

	mu     sync.Mutex
	ln     net.Listener
	conns  map[*srvConn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// ServerStats is a point-in-time reading of a Server's connection-layer
// counters.
type ServerStats struct {
	// InFlightHighWater is the most unary requests the server has had
	// executing at once, across all connections, since it started.
	InFlightHighWater int64
	// OpenStreams and OpenSnapshots count the scans and snapshot handles
	// clients currently hold open; each pins a read view.
	OpenStreams   int64
	OpenSnapshots int64
	// LeaseExpiries counts streams and snapshots reaped because their
	// client went quiet for longer than the lease.
	LeaseExpiries uint64
}

// Stats reports the server's connection-layer counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		InFlightHighWater: s.inFlightHigh.Load(),
		OpenStreams:       s.openStreams.Load(),
		OpenSnapshots:     s.openSnapshots.Load(),
		LeaseExpiries:     s.leaseExpiries.Load(),
	}
}

// NewServer wraps db. The caller retains ownership of db and closes it
// after the server shuts down.
func NewServer(db Engine) *Server {
	ctx, cancel := context.WithCancel(context.Background())
	return &Server{
		db:           db,
		IdleTimeout:  DefaultIdleTimeout,
		WriteTimeout: DefaultWriteTimeout,
		lease:        handleLease,
		baseCtx:      ctx,
		cancel:       cancel,
		conns:        make(map[*srvConn]struct{}),
	}
}

// Serve accepts connections on ln until Close is called. It always returns
// a non-nil error; after Close the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		ctx, cancel := context.WithCancel(s.baseCtx)
		c := &srvConn{
			s:       s,
			conn:    conn,
			ctx:     ctx,
			cancel:  cancel,
			work:    make(chan srvReq),
			streams: make(map[uint32]*srvStream),
			snaps:   make(map[uint64]*srvSnap),
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			c.serve()
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
		}()
	}
}

// Close stops accepting, closes all connections, aborts in-flight requests,
// streams and the stamp floor's scan, and waits for every goroutine the
// server started.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	for c := range s.conns {
		c.conn.Close()
	}
	s.mu.Unlock()
	s.cancel()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// srvConn is one connection's state: the write lock, the worker set and
// the handles (streams and snapshots) the client holds open on it.
type srvConn struct {
	s    *Server
	conn net.Conn
	// ctx is cancelled when the connection ends; worker contexts derive
	// from it, and streams scan under it.
	ctx    context.Context
	cancel context.CancelFunc

	wmu sync.Mutex // serializes frame writes

	// work hands requests to idle workers; it is unbuffered so a send
	// succeeds only if a worker is waiting, and the reader otherwise
	// starts a new worker or, at maxInFlight, blocks.
	work    chan srvReq
	workers []*worker // started so far; appended by the reader only
	wg      sync.WaitGroup

	// busy counts what keeps an otherwise quiet connection alive: requests
	// executing, open streams, held snapshots.
	busy atomic.Int64

	mu         sync.Mutex
	streams    map[uint32]*srvStream
	idle       []*srvStream // ended streams' state, for reuse; at most maxIdleStreams
	snaps      map[uint64]*srvSnap
	nextHandle uint64
}

// srvReq is one unary request on its way to a worker.
type srvReq struct {
	tag uint32
	buf *frameBuf // the request payload; the worker returns it to the pool
}

// frameBuf is a pooled byte buffer for request payloads and response
// frames.
type frameBuf struct{ b []byte }

var frameBufPool = sync.Pool{New: func() any { return new(frameBuf) }}

// worker executes unary requests one at a time under a context that lives
// across requests, so the common case allocates none: only a request that
// is actually cancelled costs a new context for the next one.
type worker struct {
	c         *srvConn
	batch     lsm.WriteBatch // reused for OpWrite and OpVersionedWrite
	out       []byte         // response frame scratch
	versioned                // OpVersionedWrite's scratch

	mu     sync.Mutex // guards the fields below against cancel(tag)
	tag    uint32
	busy   bool
	ctx    context.Context
	cancel context.CancelFunc
}

func (c *srvConn) serve() {
	c.readLoop()
	// Teardown: abort what is executing or parked, let the workers and
	// stream goroutines finish, then drop what the client left pinned.
	c.cancel()
	c.conn.Close()
	close(c.work)
	c.wg.Wait()
	c.releaseSnapshots()
}

// readLoop reads frames until the connection ends: control frames are
// applied inline, stream opens get a goroutine, everything else goes to a
// worker.
func (c *srvConn) readLoop() {
	r := bufio.NewReader(c.conn)
	for {
		if !c.awaitFrame(r) {
			return
		}
		fb := frameBufPool.Get().(*frameBuf)
		tag, payload, err := readFrame(r, fb.b)
		fb.b = payload
		if err != nil || len(payload) == 0 {
			return // EOF, a broken connection, or a peer speaking garbage
		}
		switch Op(payload[0]) {
		case OpCancel:
			c.cancelTag(tag)
		case OpCredit, OpRelease, OpStream:
			req, err := DecodeRequest(payload)
			switch {
			case err != nil:
				c.reply(tag, fb, Response{Status: StatusError, Err: err.Error()})
			case req.Op == OpCredit:
				if err := c.grant(tag, req.Credit); errors.Is(err, ErrProtocol) {
					return
				} else if err != nil {
					c.reply(tag, fb, errResponse(err))
				}
			case req.Op == OpRelease:
				c.dropSnapshot(req.Handle)
			default:
				if err := c.openStream(tag, &req); err != nil {
					c.reply(tag, fb, errResponse(err))
				}
			}
		default:
			c.dispatch(srvReq{tag: tag, buf: fb})
			continue // the worker owns fb now
		}
		frameBufPool.Put(fb)
	}
}

// awaitFrame waits for the next frame header, applying IdleTimeout only
// while the connection has nothing in flight and holds nothing open: a
// long compaction or a parked stream must not get its connection reaped.
// The wait peeks, so a timeout that lands mid-header loses no bytes.
func (c *srvConn) awaitFrame(r *bufio.Reader) bool {
	for {
		if c.s.IdleTimeout > 0 {
			c.conn.SetReadDeadline(time.Now().Add(c.s.IdleTimeout))
		}
		_, err := r.Peek(frameHeaderLen)
		if err == nil {
			return true
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) || c.busy.Load() == 0 {
			return false
		}
	}
}

// dispatch hands req to an idle worker, starts one if none is idle and
// fewer than maxInFlight exist, and otherwise blocks until one frees up —
// which stops the reader, and with it the connection's intake.
func (c *srvConn) dispatch(req srvReq) {
	select {
	case c.work <- req:
		return
	default:
	}
	if len(c.workers) >= maxInFlight {
		c.work <- req
		return
	}
	w := &worker{c: c}
	w.ctx, w.cancel = context.WithCancel(c.ctx)
	c.workers = append(c.workers, w)
	c.wg.Add(1)
	go w.run(req)
}

func (w *worker) run(req srvReq) {
	defer w.c.wg.Done()
	defer func() { w.cancel() }()
	for ok := true; ok; req, ok = <-w.c.work {
		w.serve(req)
	}
}

// serve executes one request and writes its response.
func (w *worker) serve(req srvReq) {
	c, s := w.c, w.c.s
	w.mu.Lock()
	w.tag, w.busy = req.tag, true
	ctx := w.ctx
	w.mu.Unlock()
	c.busy.Add(1)
	for n := s.inFlight.Add(1); ; {
		if high := s.inFlightHigh.Load(); n <= high || s.inFlightHigh.CompareAndSwap(high, n) {
			break
		}
	}

	w.out = beginFrame(w.out, req.tag)
	w.out = w.execute(ctx, req.buf.b, w.out)
	frameBufPool.Put(req.buf)

	s.inFlight.Add(-1)
	c.busy.Add(-1)
	w.mu.Lock()
	w.busy = false
	if ctx.Err() != nil && c.ctx.Err() == nil {
		// This request was cancelled by tag: the next one needs a live
		// context.
		w.ctx, w.cancel = context.WithCancel(c.ctx)
	}
	w.mu.Unlock()
	c.writeFrame(w.out)
	// A worker lives as long as its connection: it keeps its buffers from
	// request to request, but not the rare huge one.
	if cap(w.out) > retainLimit {
		w.out = nil
	}
	if w.batch.SizeBytes() > retainLimit {
		w.batch = lsm.WriteBatch{}
	}
}

// cancelTag cancels whatever runs under tag: a worker's current request or
// an open stream. An unknown tag — the request already finished — is not an
// error.
func (c *srvConn) cancelTag(tag uint32) {
	for _, w := range c.workers {
		w.mu.Lock()
		if w.busy && w.tag == tag {
			w.cancel()
		}
		w.mu.Unlock()
	}
	// A stream ends at its next entry or, if parked, at once.
	c.mu.Lock()
	if st := c.streams[tag]; st != nil {
		st.cancelled.Store(true)
		select {
		case st.wake <- struct{}{}:
		default:
		}
	}
	c.mu.Unlock()
}

// writeFrame completes and writes a frame started with beginFrame; one too
// large to frame is replaced by an error response under the same tag. A
// failed or timed-out write leaves the peer mid-frame, so it ends the
// connection.
func (c *srvConn) writeFrame(frame []byte) {
	out, err := endFrame(frame)
	if err != nil {
		out, _ = endFrame(AppendResponse(frame[:frameHeaderLen], errResponse(err)))
	}
	c.wmu.Lock()
	if c.s.WriteTimeout > 0 {
		c.conn.SetWriteDeadline(time.Now().Add(c.s.WriteTimeout))
	}
	_, err = c.conn.Write(out)
	c.wmu.Unlock()
	if err != nil {
		c.conn.Close()
	}
}

// reply writes resp under tag, using fb for the frame.
func (c *srvConn) reply(tag uint32, fb *frameBuf, resp Response) {
	fb.b = AppendResponse(beginFrame(fb.b, tag), resp)
	c.writeFrame(fb.b)
}

// errResponse maps an engine error onto the wire: not-found becomes its
// own status, the canonical taxonomy travels as an error code (so the
// client can rehydrate the exact sentinel), and anything else is a generic
// error string.
func errResponse(err error) Response {
	if errors.Is(err, kverr.ErrNotFound) {
		return Response{Status: StatusNotFound}
	}
	code := CodeGeneric
	switch {
	case errors.Is(err, kverr.ErrClosed):
		code = CodeClosed
	case errors.Is(err, kverr.ErrStalled):
		code = CodeStalled
	case errors.Is(err, kverr.ErrBatchTooLarge):
		code = CodeBatchTooLarge
	case errors.Is(err, kverr.ErrCorrupt):
		code = CodeCorrupt
	case errors.Is(err, kverr.ErrReadOnly):
		code = CodeReadOnly
	case errors.Is(err, kverr.ErrConfig):
		code = CodeConfig
	case errors.Is(err, context.Canceled):
		code = CodeCanceled
	case errors.Is(err, context.DeadlineExceeded):
		code = CodeDeadlineExceeded
	}
	return Response{Status: StatusError, Code: code, Err: err.Error()}
}

// okValue is the empty-value StatusOK response every op without a result
// answers with.
var okValue = Response{Status: StatusOK}

// execute runs the request in payload and appends its response to out,
// which already holds the frame header.
func (w *worker) execute(ctx context.Context, payload, out []byte) []byte {
	db := w.c.s.db
	switch Op(payload[0]) {
	case OpVersionedWrite:
		n, err := w.writeVersioned(ctx, payload[1:])
		w.applied = binary.AppendUvarint(w.applied[:0], uint64(n))
		return appendResult(out, Response{Status: StatusOK, Value: w.applied}, err)
	case OpWrite:
		// Decoded straight into the worker's batch: no []BatchOp in between.
		w.batch.Reset()
		err := decodeBatch(payload[1:], func(del bool, key, value []byte) {
			if del {
				w.batch.Delete(key)
			} else {
				w.c.s.floor.raise(value)
				w.batch.Put(key, value)
			}
		})
		if err == nil {
			err = db.WriteContext(ctx, &w.batch)
		}
		return appendResult(out, okValue, err)
	}
	req, err := DecodeRequest(payload)
	if err != nil {
		return AppendResponse(out, Response{Status: StatusError, Err: err.Error()})
	}
	switch req.Op {
	case OpPut:
		w.c.s.floor.raise(req.Value)
		return appendResult(out, okValue, db.PutContext(ctx, req.Key, req.Value))
	case OpGet:
		v, err := db.GetContext(ctx, req.Key)
		return appendResult(out, Response{Status: StatusOK, Value: v}, err)
	case OpDelete:
		return appendResult(out, okValue, db.DeleteContext(ctx, req.Key))
	case OpPing:
		// Liveness only: answer without touching the engine, so a ping
		// stays cheap and meaningful even while the engine is degraded
		// (read-only, compacting, stalled).
		return AppendResponse(out, okValue)
	case OpFlush:
		return appendResult(out, okValue, db.Flush())
	case OpCompact:
		res, err := db.MajorCompact(req.Strategy, max(int(req.K), 2), 1)
		return appendResult(out, Response{Status: StatusOK, Compact: res}, err)
	case OpStats:
		st := db.Stats()
		return AppendResponse(out, Response{Status: StatusOK, Stats: &st})
	case OpSnapshot:
		handle, err := w.c.openSnapshot()
		return appendResult(out, Response{Status: StatusOK, Handle: handle}, err)
	case OpSnapGet:
		v, err := w.c.snapshotGet(req.Handle, req.Key)
		return appendResult(out, Response{Status: StatusOK, Value: v}, err)
	default:
		return AppendResponse(out, Response{Status: StatusError, Err: fmt.Sprintf("unknown op %d", req.Op)})
	}
}

// appendResult appends ok, or err's wire form when the operation failed.
func appendResult(out []byte, ok Response, err error) []byte {
	if err != nil {
		return AppendResponse(out, errResponse(err))
	}
	return AppendResponse(out, ok)
}

var _ io.Closer = (*Server)(nil)
