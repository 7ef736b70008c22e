package kvnet

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/kverr"
	"repro/internal/lsm"
	"repro/internal/recycle"
)

// ErrNotFound reports a missing key. It aliases the canonical sentinel in
// internal/kverr — the same value the embedded engine returns — so a Get
// against a remote server and one against a local store fail identically.
var ErrNotFound = kverr.ErrNotFound

// ErrClientClosed reports use of a Client whose connection has been closed
// or has failed; a transport failure is wrapped alongside it.
var ErrClientClosed = errors.New("kvnet: client closed")

// Client is a connection to one server, safe for concurrent use. Requests
// are multiplexed: each goes out under its own tag, any number may be in
// flight, and one reader goroutine completes whichever call a response
// frame names. A context that expires cancels only its own request (see
// the package comment); the connection stays usable. Only a transport
// failure — or Close — ends the Client, after which every call returns
// ErrClientClosed.
type Client struct {
	conn net.Conn

	wmu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	pending map[uint32]*call // registered tags
	nextTag uint32
	err     error // why the connection is unusable; nil while it is live

	failed     atomic.Bool // err != nil, readable without mu
	readerDone chan struct{}
}

// call is one registered tag: a unary request awaiting its response, or a
// stream for as long as it is open. Calls and their buffers are pooled, so
// a round trip allocates nothing of its own.
type call struct {
	recycle.Mark
	// done is signalled exactly once per arming: by the reader delivering
	// a frame into buf, or by the connection failing (err).
	done   chan struct{}
	buf    []byte // the delivered payload; the reader swaps buffers with the call
	wbuf   []byte // scratch for the frames this call sends
	err    error
	stream bool
	// armed (guarded by Client.mu) is true while the call awaits a frame.
	// A stream between chunks stays registered, so its tag is not reused,
	// but unarmed: frames and failures are then not signalled to it.
	armed bool
}

var calls = recycle.Pool[*call]{New: func() *call { return &call{done: make(chan struct{}, 1)} }}

// Reset implements recycle.Recyclable.
func (cl *call) Reset() {
	*cl = call{done: cl.done, buf: recycle.Trim(cl.buf), wbuf: recycle.Trim(cl.wbuf)}
}

// Dial connects to a server at addr over TCP, waiting at most
// DefaultDialTimeout.
func Dial(addr string) (*Client, error) {
	return NewPeer(addr, TCPDialer(DefaultDialTimeout)).Client(context.Background())
}

// NewClient wraps an established connection (useful with net.Pipe in
// tests) and starts its reader goroutine; Close stops it.
func NewClient(conn net.Conn) *Client {
	c := &Client{conn: conn, pending: make(map[uint32]*call), readerDone: make(chan struct{})}
	go c.readLoop()
	return c
}

// Close closes the connection, fails every call in flight with
// ErrClientClosed and waits for the reader goroutine to exit.
func (c *Client) Close() error {
	c.fail(nil)
	<-c.readerDone
	return nil
}

// Healthy reports whether the connection is still usable: not closed and
// not failed.
func (c *Client) Healthy() bool { return !c.failed.Load() }

// fail makes the connection unusable — cause is the transport failure, or
// nil for Close — and wakes every armed call with the error.
func (c *Client) fail(cause error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = ErrClientClosed
	if cause != nil {
		c.err = fmt.Errorf("%w: %w", ErrClientClosed, cause)
	}
	c.failed.Store(true)
	var waiting []*call
	for tag, cl := range c.pending {
		delete(c.pending, tag)
		if cl.armed {
			cl.armed = false
			cl.err = c.err
			waiting = append(waiting, cl)
		}
	}
	c.mu.Unlock()
	c.conn.Close()
	for _, cl := range waiting {
		cl.done <- struct{}{}
	}
}

func (c *Client) readLoop() {
	defer close(c.readerDone)
	r := bufio.NewReader(c.conn)
	var buf []byte
	for {
		tag, payload, err := readFrame(r, buf)
		if err != nil {
			c.fail(err)
			return
		}
		buf = c.deliver(tag, payload)
	}
}

// deliver hands payload to the call registered under tag by swapping
// buffers with it, and returns the buffer to read the next frame into. A
// frame for a tag nobody awaits — the late answer to a cancelled request —
// is dropped.
func (c *Client) deliver(tag uint32, payload []byte) []byte {
	c.mu.Lock()
	cl := c.pending[tag]
	if cl == nil || !cl.armed {
		c.mu.Unlock()
		return payload
	}
	cl.armed = false
	if !cl.stream || len(payload) == 0 || Status(payload[0]) != StatusChunk {
		delete(c.pending, tag) // the tag's last frame
	}
	payload, cl.buf = cl.buf, payload
	c.mu.Unlock()
	cl.done <- struct{}{}
	return payload
}

// register arms cl under a tag no other call holds.
func (c *Client) register(cl *call) (uint32, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return 0, c.err
	}
	for {
		c.nextTag++
		if _, used := c.pending[c.nextTag]; !used {
			break
		}
	}
	cl.armed = true
	c.pending[c.nextTag] = cl
	return c.nextTag, nil
}

// rearm makes a stream's registered call await its next chunk.
func (c *Client) rearm(cl *call) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err != nil {
		return c.err
	}
	cl.armed = true
	return nil
}

// withdraw removes cl's registration while it still awaits a frame, and
// reports whether it did. False means the frame or the connection's failure
// got there first: the signal is (or is about to be) in cl.done.
func (c *Client) withdraw(tag uint32, cl *call) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending[tag] != cl || !cl.armed {
		return false
	}
	delete(c.pending, tag)
	cl.armed = false
	return true
}

// forget removes the registration of a stream that is between chunks, and
// reports whether the stream was still open.
func (c *Client) forget(tag uint32, cl *call) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending[tag] != cl {
		return false
	}
	delete(c.pending, tag)
	return true
}

// send writes one frame built in cl.wbuf: tag, then req. It returns an
// error only for a request too large to frame; a write failure fails the
// connection, which is how the calls in flight learn of it.
func (c *Client) send(cl *call, tag uint32, req *Request) error {
	frame, err := endFrame(AppendRequest(beginFrame(cl.wbuf, tag), req))
	if err != nil {
		return err
	}
	cl.wbuf = frame
	c.wmu.Lock()
	c.conn.SetWriteDeadline(time.Now().Add(defaultWriteTimeout))
	_, err = c.conn.Write(frame)
	c.wmu.Unlock()
	if err != nil {
		c.fail(err)
	}
	return nil
}

// await blocks until cl is signalled or ctx expires; on expiry the request
// is cancelled by tag and the connection is left intact.
func (c *Client) await(ctx context.Context, tag uint32, cl *call) error {
	select {
	case <-cl.done:
	case <-ctx.Done():
		if c.withdraw(tag, cl) {
			c.send(cl, tag, &Request{Op: OpCancel})
			return fmt.Errorf("kvnet: request aborted: %w", ctx.Err())
		}
		<-cl.done // the answer won the race
	}
	return cl.err
}

// roundTrip sends one unary request and waits for its response. On success
// the response's byte fields alias the returned call's buffer: the caller
// hands the call back to calls once it is done with them.
func (c *Client) roundTrip(ctx context.Context, req *Request) (*call, Response, error) {
	if err := ctx.Err(); err != nil {
		return nil, Response{}, err
	}
	cl := calls.Get()
	resp, err := c.exchange(ctx, cl, req)
	if err != nil {
		calls.Put(cl)
		return nil, Response{}, err
	}
	return cl, resp, nil
}

// start registers cl and sends req under its tag; on error cl is left
// unregistered and unsignalled.
func (c *Client) start(cl *call, req *Request) (uint32, error) {
	tag, err := c.register(cl)
	if err != nil {
		return 0, err
	}
	if err := c.send(cl, tag, req); err != nil {
		if !c.withdraw(tag, cl) {
			<-cl.done
		}
		return 0, err
	}
	return tag, nil
}

func (c *Client) exchange(ctx context.Context, cl *call, req *Request) (Response, error) {
	tag, err := c.start(cl, req)
	if err != nil {
		return Response{}, err
	}
	if err := c.await(ctx, tag, cl); err != nil {
		return Response{}, err
	}
	resp, err := DecodeResponse(cl.buf)
	if err != nil {
		return Response{}, err
	}
	if resp.Status == StatusError {
		return Response{}, decodeServerError(resp.Code, resp.Err)
	}
	return resp, nil
}

// do is roundTrip for requests whose response carries nothing to keep.
func (c *Client) do(ctx context.Context, req *Request) error {
	cl, _, err := c.roundTrip(ctx, req)
	if err == nil {
		calls.Put(cl)
	}
	return err
}

// decodeServerError maps a wire error code back to the canonical sentinel
// it was encoded from, so remote engine errors compare with errors.Is
// exactly like local ones.
func decodeServerError(code ErrCode, msg string) error {
	switch code {
	case CodeClosed:
		return fmt.Errorf("kvnet: server: %w", kverr.ErrClosed)
	case CodeStalled:
		return fmt.Errorf("kvnet: server: %w", kverr.ErrStalled)
	case CodeBatchTooLarge:
		return fmt.Errorf("kvnet: server: %w", kverr.ErrBatchTooLarge)
	case CodeCorrupt:
		return fmt.Errorf("kvnet: server: %w", kverr.ErrCorrupt)
	case CodeReadOnly:
		return fmt.Errorf("kvnet: server: %w", kverr.ErrReadOnly)
	case CodeConfig:
		return fmt.Errorf("kvnet: server: %w", kverr.ErrConfig)
	case CodeCanceled:
		return fmt.Errorf("kvnet: server: %w", context.Canceled)
	case CodeDeadlineExceeded:
		return fmt.Errorf("kvnet: server: %w", context.DeadlineExceeded)
	default:
		return fmt.Errorf("kvnet: server: %s", msg)
	}
}

// Put stores key → value.
func (c *Client) Put(ctx context.Context, key, value []byte) error {
	return c.do(ctx, &Request{Op: OpPut, Key: key, Value: value})
}

// Get returns the value for key, or ErrNotFound. A stored empty value and
// a missing key are distinct: the former returns an empty slice and nil
// error, the latter ErrNotFound (the wire protocol carries not-found as an
// explicit status, not as an empty value).
func (c *Client) Get(ctx context.Context, key []byte) ([]byte, error) {
	return c.AppendGet(ctx, []byte{}, key)
}

// AppendGet is Get that appends the value to dst and returns the extended
// slice, so a caller that reads into a buffer of its own allocates nothing
// once the buffer is large enough. On an error dst comes back unextended.
func (c *Client) AppendGet(ctx context.Context, dst, key []byte) ([]byte, error) {
	return c.get(ctx, dst, &Request{Op: OpGet, Key: key})
}

func (c *Client) get(ctx context.Context, dst []byte, req *Request) ([]byte, error) {
	cl, resp, err := c.roundTrip(ctx, req)
	if err != nil {
		return dst, err
	}
	if resp.Status == StatusNotFound {
		err = ErrNotFound
	} else {
		dst = append(dst, resp.Value...)
	}
	calls.Put(cl)
	return dst, err
}

// Delete removes key.
func (c *Client) Delete(ctx context.Context, key []byte) error {
	return c.do(ctx, &Request{Op: OpDelete, Key: key})
}

// Write commits a batch of operations atomically in one round trip: the
// server applies the whole batch through the engine's group-commit
// pipeline, so it becomes durable and visible as a unit. An empty batch is
// a no-op.
func (c *Client) Write(ctx context.Context, batch []BatchOp) error {
	if len(batch) == 0 {
		return nil
	}
	return c.do(ctx, &Request{Op: OpWrite, Batch: batch})
}

// WriteVersioned is Write for stamped records (OpVersionedWrite): the
// server keeps, of each key, the record with the highest stamp it has been
// sent, so a late write never overwrites a newer one. It returns how many
// of the batch's puts the server applied. An empty batch is a no-op.
func (c *Client) WriteVersioned(ctx context.Context, batch []BatchOp) (applied int, err error) {
	if len(batch) == 0 {
		return 0, nil
	}
	cl, resp, err := c.roundTrip(ctx, &Request{Op: OpVersionedWrite, Batch: batch})
	if err != nil {
		return 0, err
	}
	n, _ := binary.Uvarint(resp.Value)
	calls.Put(cl)
	return int(n), nil
}

// Ping probes the server for liveness without touching the engine. A nil
// return means the peer decoded a frame and answered: the connection is
// live end to end. Health checkers call it on an interval so dead peers
// are demoted before user requests hit them.
func (c *Client) Ping(ctx context.Context) error {
	return c.do(ctx, &Request{Op: OpPing})
}

// Flush forces a memtable flush on the server.
func (c *Client) Flush(ctx context.Context) error {
	return c.do(ctx, &Request{Op: OpFlush})
}

// Compact triggers a major compaction scheduled by the named strategy.
func (c *Client) Compact(ctx context.Context, strategy string, k int) (*lsm.CompactionResult, error) {
	cl, resp, err := c.roundTrip(ctx, &Request{Op: OpCompact, Strategy: strategy, K: uint64(k)})
	if err != nil {
		return nil, err
	}
	calls.Put(cl)
	if resp.Compact == nil {
		return nil, fmt.Errorf("kvnet: malformed compact response: %w", ErrProtocol)
	}
	return resp.Compact, nil
}

// Stats fetches server statistics.
func (c *Client) Stats(ctx context.Context) (*lsm.Stats, error) {
	cl, resp, err := c.roundTrip(ctx, &Request{Op: OpStats})
	if err != nil {
		return nil, err
	}
	calls.Put(cl)
	if resp.Stats == nil {
		return nil, fmt.Errorf("kvnet: malformed stats response: %w", ErrProtocol)
	}
	return resp.Stats, nil
}
