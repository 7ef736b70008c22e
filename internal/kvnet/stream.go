package kvnet

import (
	"context"
	"fmt"
	"sync/atomic"
)

// Stream iterates a key range the server scans once, under one consistent
// read view, and sends in credit-sized chunks (see the package comment).
// Entries are decoded in place from the current chunk, so the stream holds
// at most one chunk — never more than maxCredit bytes unless a single
// entry is larger. Next never waits on the network: when it runs off the
// end of a chunk, the next Valid, Key or Value grants the following one and
// waits for it, so a caller that stops after its last entry costs the
// server nothing more. It is not safe for concurrent use, and must be
// Closed.
type Stream struct {
	c   *Client
	ctx context.Context
	cl  *call // registered under tag while the server-side scan is open
	tag uint32

	rest       []byte // entries of the current chunk not yet decoded
	key, value []byte
	valid      bool
	pending    bool   // Next ran: Valid positions the stream
	more       bool   // the server parked the scan: a grant resumes it
	credit     uint64 // the last grant
	err        error
	closed     bool
	// maxChunk is the most entry bytes held at once, for the bounded-memory
	// test.
	maxChunk int
}

// OpenStream opens into s, which must be new or closed, a scan of
// start <= key < end (nil or empty bounds are open) over the live store,
// positioned at the first entry. The scan lives until ctx expires, the
// stream is closed, or it is drained. s is the caller's, so an iterator
// that holds its Stream by value opens a scan without allocating one.
func (c *Client) OpenStream(ctx context.Context, s *Stream, start, end []byte) error {
	return s.open(ctx, c, 0, start, end)
}

// open opens s on a scan through snapshot handle (0 for the live store), or
// closes it and says why not.
func (s *Stream) open(ctx context.Context, c *Client, handle uint64, start, end []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if len(end) == 0 {
		end = nil
	}
	cl := calls.Get()
	cl.stream = true
	*s = Stream{c: c, ctx: ctx, cl: cl, credit: initialCredit}
	var err error
	s.tag, err = c.start(cl, &Request{Op: OpStream, Handle: handle, Start: start, End: end, Credit: s.credit})
	if err == nil {
		s.receive()
		s.advance()
		err = s.err
	}
	if err != nil {
		s.Close()
	}
	return err
}

// receive waits for the stream's next frame and makes its entries current.
func (s *Stream) receive() {
	if s.err = s.c.await(s.ctx, s.tag, s.cl); s.err != nil {
		return
	}
	payload := s.cl.buf
	if len(payload) >= 2 && payload[1] == 'E' && (Status(payload[0]) == StatusChunk || Status(payload[0]) == StatusOK) {
		s.more, s.rest = Status(payload[0]) == StatusChunk, payload[2:]
		s.maxChunk = max(s.maxChunk, len(s.rest))
		return
	}
	s.more = false
	resp, err := DecodeResponse(payload)
	switch {
	case err != nil:
		s.err = err
	case resp.Status == StatusError:
		s.err = decodeServerError(resp.Code, resp.Err)
	default:
		s.err = fmt.Errorf("kvnet: unexpected stream frame: %w", ErrProtocol)
	}
}

// Valid reports whether the stream is positioned at an entry. After Next
// it first decodes the following entry; when the chunk is drained and the
// server has more, it grants twice the previous credit (up to maxCredit)
// and waits for the next chunk, and a failure there ends the stream with
// Err set.
func (s *Stream) Valid() bool {
	if s.pending {
		s.pending = false
		s.advance()
	}
	return s.valid
}

// Key returns the current key, or nil when the stream is not Valid; it
// aliases the chunk buffer and is valid only until the next call to Next
// or Close.
func (s *Stream) Key() []byte {
	if !s.Valid() {
		return nil
	}
	return s.key
}

// Value returns the current value; same caveats as Key.
func (s *Stream) Value() []byte {
	if !s.Valid() {
		return nil
	}
	return s.value
}

// Next moves past the current entry. It never waits on the network: the
// next Valid, Key or Value positions the stream.
func (s *Stream) Next() { s.valid, s.pending = false, true }

// advance positions the stream at the next entry, granting credit for a
// further chunk when the current one is drained.
func (s *Stream) advance() {
	if s.err != nil || s.closed {
		return
	}
	for len(s.rest) == 0 {
		if !s.more {
			return
		}
		// An expired context asks for nothing more: checked here rather
		// than left to receive, where a chunk that is already in could
		// win the race against the expiry.
		if err := s.ctx.Err(); err != nil {
			s.err = fmt.Errorf("kvnet: request aborted: %w", err)
			return
		}
		s.credit = min(2*s.credit, maxCredit)
		if s.err = s.c.rearm(s.cl); s.err != nil {
			return
		}
		s.c.send(s.cl, s.tag, &Request{Op: OpCredit, Credit: s.credit})
		if s.receive(); s.err != nil {
			return
		}
	}
	s.key, s.value, s.rest, s.err = nextEntry(s.rest)
	s.valid = s.err == nil
}

// Err returns the error that ended the stream early: the context's, a
// typed server error, or the connection's failure. A drained stream
// returns nil. The error surfaces in Valid, so Err is read after it, not
// straight after Next.
func (s *Stream) Err() error { return s.err }

// Close ends the stream; if the server-side scan is still open it is
// cancelled by tag, which releases the view it pinned. Idempotent.
func (s *Stream) Close() error {
	if s.closed {
		return nil
	}
	s.closed, s.valid = true, false
	if s.c.forget(s.tag, s.cl) {
		s.c.send(s.cl, s.tag, &Request{Op: OpCancel})
	}
	calls.Put(s.cl)
	s.cl, s.rest, s.key, s.value = nil, nil, nil, nil
	return nil
}

// Snapshot is a point-in-time read view held by the server on this
// connection (see the package comment for its lease). It is safe for
// concurrent use.
type Snapshot struct {
	c        *Client
	handle   uint64
	released atomic.Bool
}

// Snapshot pins a point-in-time view on the server. A server whose engine
// has no snapshots answers with kverr.ErrConfig.
func (c *Client) Snapshot(ctx context.Context) (*Snapshot, error) {
	cl, resp, err := c.roundTrip(ctx, &Request{Op: OpSnapshot})
	if err != nil {
		return nil, err
	}
	calls.Put(cl)
	if resp.Handle == 0 {
		return nil, fmt.Errorf("kvnet: malformed snapshot response: %w", ErrProtocol)
	}
	return &Snapshot{c: c, handle: resp.Handle}, nil
}

// Get returns the value stored for key as of the snapshot, ErrNotFound, or
// kverr.ErrClosed once the handle was released or its lease expired.
func (s *Snapshot) Get(ctx context.Context, key []byte) ([]byte, error) {
	return s.c.get(ctx, []byte{}, &Request{Op: OpSnapGet, Handle: s.handle, Key: key})
}

// OpenStream is Client.OpenStream through the snapshot. The stream pins the
// snapshot's view itself, so it outlives Release.
func (s *Snapshot) OpenStream(ctx context.Context, st *Stream, start, end []byte) error {
	return st.open(ctx, s.c, s.handle, start, end)
}

// Release drops the server-side view without waiting for an answer.
// Idempotent.
func (s *Snapshot) Release() {
	if s.released.CompareAndSwap(false, true) {
		cl := calls.Get()
		s.c.send(cl, 0, &Request{Op: OpRelease, Handle: s.handle})
		calls.Put(cl)
	}
}
