// Package kvnet provides the client/server network layer over the LSM
// engine: a compact multiplexed binary protocol, a Server that serves one
// engine to many concurrent connections, and a Client. This is the "NoSQL
// database server" shape the paper assumes — each server owns its keys and
// runs compaction locally in the background — made concrete enough to
// exercise compaction over the wire.
//
// # Frames
//
// Every message, in either direction, is one frame:
//
//	u32 LE payload length | u32 LE tag | payload
//
// A client→server payload starts with an op byte, a server→client payload
// with a status byte; strings and byte fields are uvarint length-prefixed.
// The tag names the request a frame belongs to, so any number of requests
// share one connection and complete in any order.
//
// # Tag lifecycle
//
// The client picks a tag that is not in use on the connection and
// registers it before the request frame is written. A unary request (Put,
// Get, Write, Snapshot, …) gets exactly one response frame with the same tag,
// which retires it. A request is cancelled by tag: the client unregisters
// the tag, sends OpCancel under it and returns at once; the server cancels
// that request's context, and a response that was already on its way is
// dropped by the client as an unknown tag. Nothing else on the connection
// is disturbed. OpCancel, OpCredit and OpRelease are control frames: they
// are never answered.
//
// # Streams and credit
//
// OpStream opens a scan of [start, end) under its tag and carries a byte
// credit. The server runs one range scan for the whole stream — one
// consistent read view end to end — and encodes entries into a chunk until
// the next entry would exceed the credit; it then sends the chunk
// (StatusChunk) and parks inside the scan. The client decodes the chunk in
// place. Stream.Next never waits on the network: once it has stepped past
// a chunk's last entry, the next Valid, Key or Value sends OpCredit under
// the stream's tag and waits for the next chunk, and an error surfaces
// there. So a caller that stops after the entry it wanted grants nothing
// more, and the server reads nothing more for it. The last chunk is a
// StatusOK entries response, which retires the tag; an error response does
// too. The first grant is initialCredit (4 KiB) and each later grant
// doubles up to maxCredit (256 KiB), so a short scan fetches little more
// than it reads, a long one runs in large chunks, and the client never
// buffers more than maxCredit (or one entry, if a single entry is larger).
// The server clamps a grant to maxCredit.
// A stream's server state (credit slot, cancel signal, lease timer, bounds)
// is recycled per connection, so a stream allocates nothing there. Cancel
// is a flag the scan checks per entry plus a wake for a parked scan.
//
// # Snapshots and leases
//
// OpSnapshot pins a point-in-time view on the server and returns a handle,
// valid on this connection only. OpSnapGet and OpStream name the handle to
// read through it; OpRelease drops it. A handle that no frame has named for
// handleLease, and a parked stream that has received no credit for
// handleLease, are reaped: their view pins are released, and a later
// use of the handle, or a later grant to the stream, is answered with
// kverr.ErrClosed — as is a grant that races the expiry, arriving as the
// lease fires. Connection loss releases everything the connection held.
// So a client that vanishes cannot pin a view, and every table it keeps,
// for longer than the lease.
//
// # Connections
//
// A Peer is the one re-dial path: kv.Dial's engine holds one, and a cluster
// router one per node. Once its connection breaks, the next caller
// re-dials under its own context and outside any lock; racing re-dials
// keep the first connection, and one that lands after Close is closed.
//
// # Statistics
//
// OpStats is answered with a kind-'S' body: the JSON of lsm.Stats, whose
// snake_case keys are the public /stats keys kv.Stats prints. Keys a
// reader does not know are ignored and keys it misses read as zero, so a
// client and a server that disagree on the key names (CamelCase before
// lsm.Stats was tagged) read each other's counters as zero.
package kvnet

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"repro/internal/lsm"
)

// ErrProtocol reports a malformed or truncated frame — wire bytes that do
// not decode as the protocol this package speaks. Every decode failure
// wraps it, so transports can distinguish "the peer speaks garbage" (drop
// the connection) from typed engine errors with errors.Is.
var ErrProtocol = errors.New("kvnet: protocol error")

// Op identifies a request type.
type Op byte

// Request operations.
const (
	OpPut Op = iota + 1
	OpGet
	OpDelete
	_ // the retired prefix scan's; reserved so later op bytes keep their values
	OpFlush
	OpCompact
	OpStats
	// OpWrite commits a batch of puts and deletes atomically: the server
	// applies it through the engine's group-commit pipeline, so the whole
	// batch becomes durable and visible as a unit.
	OpWrite
	_ // the retired OpRange's (one-page range scan); reserved likewise
	// OpPing is a no-op liveness probe: the server answers StatusOK
	// without touching the engine. Failure detectors use it to notice a
	// reaped or dead peer before a user request has to.
	OpPing
	// OpStream opens a credit-streamed scan of Start <= key < End under
	// the frame's tag, through snapshot Handle (0 = the live store), with
	// an initial byte Credit.
	OpStream
	// OpCredit grants the stream under the frame's tag Credit more bytes.
	OpCredit
	// OpCancel cancels the request or stream under the frame's tag.
	OpCancel
	// OpSnapshot pins a point-in-time view and answers with its handle.
	OpSnapshot
	// OpSnapGet is OpGet through snapshot Handle.
	OpSnapGet
	// OpRelease drops snapshot Handle.
	OpRelease
	// OpVersionedWrite is OpWrite for stamped records, the writes of a
	// replicated cluster: a batch of puts only, each value a record (see
	// RecordStamp). The server applies a put only if its stamp is above
	// the stamp of the record it holds under the key, checking and writing
	// under a per-key lock, so writes to one key commute: a node ends at
	// the highest stamp it was sent, whatever order the sends arrive in.
	// Puts that lose are dropped, not failed: the answer is StatusOK with
	// the number of puts applied as a uvarint value. A delete, or a value
	// that is not a record, fails the batch.
	OpVersionedWrite
)

// Status is the first byte of every response.
type Status byte

// Response statuses.
const (
	StatusOK Status = iota
	StatusNotFound
	StatusError
	// StatusChunk is StatusOK for a stream's entries response with more to
	// follow: the stream is parked until the client grants credit.
	StatusChunk
)

// ErrCode classifies a StatusError response so clients can decode typed
// engine errors back to the canonical sentinels (internal/kverr) and
// errors.Is against them across the wire. CodeGeneric carries only the
// message string.
type ErrCode byte

// Error codes carried by StatusError responses.
const (
	CodeGeneric ErrCode = iota
	CodeClosed
	CodeStalled
	CodeBatchTooLarge
	CodeCanceled
	CodeDeadlineExceeded
	// CodeCorrupt and CodeReadOnly travel the durability taxonomy: data
	// failing integrity checks, and an engine that refuses writes after a
	// durability failure.
	CodeCorrupt
	CodeReadOnly
	// CodeConfig reports a request the served engine cannot answer by
	// construction, such as OpSnapshot against an engine without snapshots.
	CodeConfig
)

// MaxMessageSize bounds a single frame payload; larger frames are rejected
// as corrupt rather than allocated.
const MaxMessageSize = 32 << 20

// Flow-control and lease constants; see the package comment.
const (
	initialCredit = 4 << 10
	maxCredit     = 256 << 10
	handleLease   = time.Minute
	// maxInFlight bounds the unary requests one connection executes at
	// once; when every worker is busy the server stops reading the
	// connection, which is the back-pressure.
	maxInFlight = 64
	// maxHandles bounds the streams plus snapshots one connection may hold
	// open, so a peer cannot park goroutines and pin views without limit.
	maxHandles = 1024
	// maxIdleStreams bounds the ended streams a connection keeps for reuse.
	maxIdleStreams = 16
)

// ErrTooLarge reports a frame exceeding MaxMessageSize.
var ErrTooLarge = fmt.Errorf("kvnet: message too large: %w", ErrProtocol)

// Versioned records: the envelope a replicated cluster stores every value
// in, and the only values OpVersionedWrite takes — a format byte
// (RecordFormat), a flags byte, the record's stamp as a big-endian u64,
// then the user value.
const (
	RecordFormat    = 0x01
	RecordHeaderLen = 1 + 1 + 8
)

// RecordStamp returns the stamp of a value in the record envelope, or
// false if b is not one.
func RecordStamp(b []byte) (uint64, bool) {
	if len(b) < RecordHeaderLen || b[0] != RecordFormat {
		return 0, false
	}
	return binary.BigEndian.Uint64(b[2:RecordHeaderLen]), true
}

// BatchOp is one operation inside an OpWrite or OpVersionedWrite batch.
type BatchOp struct {
	Delete bool
	Key    []byte
	Value  []byte // ignored for deletes
}

// Request is a decoded client request.
type Request struct {
	Op       Op
	Key      []byte
	Value    []byte
	Strategy string
	K        uint64
	Batch    []BatchOp // OpWrite and OpVersionedWrite only
	// Start and End bound an OpStream: Start <= key < End. A nil End means
	// no upper bound (End is encoded with a presence flag, so the open bound
	// survives the round trip).
	Start, End []byte
	// Handle names a snapshot (OpStream, OpSnapGet, OpRelease); Credit is
	// a byte grant (OpStream, OpCredit).
	Handle uint64
	Credit uint64
}

// Response is a decoded server response. Compact and Stats, the answers to
// OpCompact and OpStats, travel as the engine's own structs, JSON-encoded,
// so every counter the engine keeps reaches the client.
type Response struct {
	Status  Status
	Code    ErrCode // StatusError only
	Value   []byte
	Err     string
	Compact *lsm.CompactionResult
	Stats   *lsm.Stats
	Handle  uint64 // OpSnapshot's answer
}

// frameHeaderLen is the fixed prefix of every frame: payload length, tag.
const frameHeaderLen = 8

// beginFrame resets buf to a frame header for tag with the length still to
// be filled in; the payload is appended after it and endFrame completes it.
func beginFrame(buf []byte, tag uint32) []byte {
	buf = append(buf[:0], 0, 0, 0, 0)
	return binary.LittleEndian.AppendUint32(buf, tag)
}

// endFrame fills in the payload length of a frame started by beginFrame.
func endFrame(buf []byte) ([]byte, error) {
	n := len(buf) - frameHeaderLen
	if n > MaxMessageSize {
		return nil, ErrTooLarge
	}
	binary.LittleEndian.PutUint32(buf, uint32(n))
	return buf, nil
}

// readChunk is how much of a frame body is allocated ahead of the bytes
// actually arriving, so a hostile length field costs at most this much.
const readChunk = 64 << 10

// readFrame reads one frame, reusing buf's capacity for the payload. The
// header is decoded in place in r's own buffer — a local array handed to
// io.ReadFull through the io.Reader interface would escape, one heap
// object per frame on both read loops. A clean end of stream before the
// first header byte is io.EOF; a frame cut short or longer than
// MaxMessageSize wraps ErrProtocol.
func readFrame(r *bufio.Reader, buf []byte) (tag uint32, payload []byte, err error) {
	hdr, err := r.Peek(frameHeaderLen)
	if err != nil {
		if len(hdr) > 0 && errors.Is(err, io.EOF) {
			err = fmt.Errorf("kvnet: truncated frame header: %w", ErrProtocol)
		}
		return 0, buf[:0], err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:4]))
	tag = binary.LittleEndian.Uint32(hdr[4:])
	r.Discard(frameHeaderLen) // cannot fail: the bytes were just peeked
	if n > MaxMessageSize {
		return tag, buf[:0], ErrTooLarge
	}
	payload, err = readBody(r, buf[:0], n)
	return tag, payload, err
}

// readBody appends n bytes from r to buf, growing it only as they arrive.
func readBody(r io.Reader, buf []byte, n int) ([]byte, error) {
	for n > 0 {
		step := min(n, max(cap(buf)-len(buf), readChunk))
		buf = slices.Grow(buf, step)
		if _, err := io.ReadFull(r, buf[len(buf):len(buf)+step]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				err = fmt.Errorf("kvnet: truncated frame: %w", ErrProtocol)
			}
			return buf, err
		}
		buf = buf[:len(buf)+step]
		n -= step
	}
	return buf, nil
}

func appendBytes(dst, b []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

func readBytes(buf []byte) ([]byte, []byte, error) {
	n, sz := binary.Uvarint(buf)
	if sz <= 0 || uint64(len(buf[sz:])) < n {
		return nil, nil, fmt.Errorf("kvnet: truncated field: %w", ErrProtocol)
	}
	buf = buf[sz:]
	return buf[:n:n], buf[n:], nil
}

func readUvarint(buf []byte) (uint64, []byte, error) {
	v, sz := binary.Uvarint(buf)
	if sz <= 0 {
		return 0, nil, fmt.Errorf("kvnet: truncated uvarint: %w", ErrProtocol)
	}
	return v, buf[sz:], nil
}

// appendBound encodes a range end with its presence flag.
func appendBound(dst, end []byte) []byte {
	if end == nil {
		return append(dst, 0)
	}
	return appendBytes(append(dst, 1), end)
}

// readBound decodes what appendBound wrote.
func readBound(buf []byte) (end, rest []byte, err error) {
	if len(buf) < 1 {
		return nil, nil, fmt.Errorf("kvnet: truncated range bound: %w", ErrProtocol)
	}
	switch buf[0] {
	case 0:
		return nil, buf[1:], nil
	case 1:
		return readBytes(buf[1:])
	}
	return nil, nil, fmt.Errorf("kvnet: bad range bound flag %d: %w", buf[0], ErrProtocol)
}

// appendEntry encodes one scan entry; entrySize is the bytes it takes.
func appendEntry(dst, key, value []byte) []byte {
	return appendBytes(appendBytes(dst, key), value)
}

func entrySize(key, value []byte) int {
	return uvarintLen(len(key)) + len(key) + uvarintLen(len(value)) + len(value)
}

func uvarintLen(n int) int {
	l := 1
	for n >= 0x80 {
		n >>= 7
		l++
	}
	return l
}

// nextEntry decodes the entry at the front of an entries body in place.
func nextEntry(buf []byte) (key, value, rest []byte, err error) {
	if key, buf, err = readBytes(buf); err != nil {
		return nil, nil, nil, err
	}
	if value, rest, err = readBytes(buf); err != nil {
		return nil, nil, nil, err
	}
	return key, value, rest, nil
}

// AppendRequest appends req's payload encoding to out. It takes a pointer,
// as does every client function on the way here, because a Request is a
// few hundred bytes: passed by value down the call chain it outgrows the
// small stack of a freshly started goroutine — the cluster router starts
// three per operation — and each one pays for a stack copy.
func AppendRequest(out []byte, req *Request) []byte {
	out = append(out, byte(req.Op))
	switch req.Op {
	case OpPut:
		out = appendBytes(out, req.Key)
		out = appendBytes(out, req.Value)
	case OpGet, OpDelete:
		out = appendBytes(out, req.Key)
	case OpCompact:
		out = appendBytes(out, []byte(req.Strategy))
		out = binary.AppendUvarint(out, req.K)
	case OpWrite, OpVersionedWrite:
		out = AppendBatch(out, req.Batch)
	case OpStream:
		out = binary.AppendUvarint(out, req.Handle)
		out = appendBytes(out, req.Start)
		out = appendBound(out, req.End)
		out = binary.AppendUvarint(out, req.Credit)
	case OpCredit:
		out = binary.AppendUvarint(out, req.Credit)
	case OpSnapGet:
		out = binary.AppendUvarint(out, req.Handle)
		out = appendBytes(out, req.Key)
	case OpRelease:
		out = binary.AppendUvarint(out, req.Handle)
	}
	return out
}

// AppendBatch appends the body of an OpWrite or OpVersionedWrite request
// to out: a uvarint op count, then per op a kind byte (1 for a delete), the
// key and, for a put, the value.
func AppendBatch(out []byte, ops []BatchOp) []byte {
	out = binary.AppendUvarint(out, uint64(len(ops)))
	for _, op := range ops {
		kind := byte(0)
		if op.Delete {
			kind = 1
		}
		out = append(out, kind)
		out = appendBytes(out, op.Key)
		if !op.Delete {
			out = appendBytes(out, op.Value)
		}
	}
	return out
}

// DecodeBatch walks a body AppendBatch wrote, handing each operation to fn;
// key and value alias buf. It refuses a count the payload cannot hold and
// allocates nothing itself, so a forged count costs no memory.
func DecodeBatch(buf []byte, fn func(del bool, key, value []byte)) error {
	n, buf, err := readUvarint(buf)
	if err != nil {
		return err
	}
	// Every op consumes at least two payload bytes (kind + key length), so
	// a count above len(buf)/2 is structurally bogus.
	if n > uint64(len(buf))/2 {
		return fmt.Errorf("kvnet: batch count %d exceeds payload: %w", n, ErrProtocol)
	}
	for i := uint64(0); i < n; i++ {
		if len(buf) < 1 {
			return fmt.Errorf("kvnet: truncated batch op: %w", ErrProtocol)
		}
		kind := buf[0]
		if kind > 1 {
			return fmt.Errorf("kvnet: unknown batch op kind %d: %w", kind, ErrProtocol)
		}
		var key, value []byte
		if key, buf, err = readBytes(buf[1:]); err != nil {
			return err
		}
		if kind == 0 {
			if value, buf, err = readBytes(buf); err != nil {
				return err
			}
		}
		fn(kind == 1, key, value)
	}
	return nil
}

// DecodeRequest parses a frame payload into a Request. Byte fields alias
// buf.
func DecodeRequest(buf []byte) (Request, error) {
	var req Request
	if len(buf) < 1 {
		return req, fmt.Errorf("kvnet: empty request: %w", ErrProtocol)
	}
	req.Op = Op(buf[0])
	buf = buf[1:]
	var err error
	switch req.Op {
	case OpPut:
		if req.Key, buf, err = readBytes(buf); err != nil {
			return req, err
		}
		if req.Value, _, err = readBytes(buf); err != nil {
			return req, err
		}
	case OpGet, OpDelete:
		if req.Key, _, err = readBytes(buf); err != nil {
			return req, err
		}
	case OpCompact:
		var s []byte
		if s, buf, err = readBytes(buf); err != nil {
			return req, err
		}
		req.Strategy = string(s)
		if req.K, _, err = readUvarint(buf); err != nil {
			return req, err
		}
	case OpWrite, OpVersionedWrite:
		// The slice grows only as ops decode, so a hostile count can never
		// force a large allocation.
		err = DecodeBatch(buf, func(del bool, key, value []byte) {
			req.Batch = append(req.Batch, BatchOp{Delete: del, Key: key, Value: value})
		})
		if err != nil {
			return req, err
		}
	case OpStream:
		if req.Handle, buf, err = readUvarint(buf); err != nil {
			return req, err
		}
		if req.Start, buf, err = readBytes(buf); err != nil {
			return req, err
		}
		if req.End, buf, err = readBound(buf); err != nil {
			return req, err
		}
		if req.Credit, _, err = readUvarint(buf); err != nil {
			return req, err
		}
	case OpCredit:
		if req.Credit, _, err = readUvarint(buf); err != nil {
			return req, err
		}
	case OpSnapGet:
		if req.Handle, buf, err = readUvarint(buf); err != nil {
			return req, err
		}
		if req.Key, _, err = readBytes(buf); err != nil {
			return req, err
		}
	case OpRelease:
		if req.Handle, _, err = readUvarint(buf); err != nil {
			return req, err
		}
	case OpFlush, OpStats, OpPing, OpCancel, OpSnapshot:
	default:
		return req, fmt.Errorf("kvnet: unknown op %d: %w", req.Op, ErrProtocol)
	}
	return req, nil
}

// AppendResponse appends resp's payload encoding to dst. A stream's
// entries frames are not Responses: kind 'E', under StatusChunk or (the
// last) StatusOK, then the entries back to back up to the end of the
// payload. There is no count, so the server encodes entries as its scan
// produces them, and the client's Stream walks them in place.
func AppendResponse(out []byte, resp Response) []byte {
	start := len(out)
	out = append(out, byte(resp.Status))
	switch resp.Status {
	case StatusError:
		out = append(out, byte(resp.Code))
		return appendBytes(out, []byte(resp.Err))
	case StatusNotFound:
		return out
	}
	var body any
	switch {
	case resp.Compact != nil:
		out, body = append(out, 'C'), resp.Compact
	case resp.Stats != nil:
		out, body = append(out, 'S'), resp.Stats
	case resp.Handle != 0:
		out = binary.AppendUvarint(append(out, 'H'), resp.Handle)
	default:
		out = append(out, 'V')
		out = appendBytes(out, resp.Value)
	}
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return AppendResponse(out[:start], Response{Status: StatusError, Err: fmt.Sprintf("kvnet: encode response: %v", err)})
		}
		out = append(out, b...)
	}
	return out
}

// readJSON decodes a 'C' or 'S' body into v.
func readJSON(buf []byte, v any) error {
	if err := json.Unmarshal(buf, v); err != nil {
		return fmt.Errorf("kvnet: malformed response body: %v: %w", err, ErrProtocol)
	}
	return nil
}

// DecodeResponse parses a frame payload into a Response. Byte fields alias
// buf. A stream's entries frames are not Responses (see AppendResponse).
func DecodeResponse(buf []byte) (Response, error) {
	var resp Response
	if len(buf) < 1 {
		return resp, fmt.Errorf("kvnet: empty response: %w", ErrProtocol)
	}
	resp.Status = Status(buf[0])
	buf = buf[1:]
	var err error
	switch resp.Status {
	case StatusNotFound:
		return resp, nil
	case StatusError:
		if len(buf) < 1 {
			return resp, fmt.Errorf("kvnet: truncated error response: %w", ErrProtocol)
		}
		resp.Code = ErrCode(buf[0])
		buf = buf[1:]
		var msg []byte
		if msg, _, err = readBytes(buf); err != nil {
			return resp, err
		}
		resp.Err = string(msg)
		return resp, nil
	case StatusOK:
	default:
		return resp, fmt.Errorf("kvnet: unknown status %d: %w", resp.Status, ErrProtocol)
	}
	if len(buf) < 1 {
		return resp, fmt.Errorf("kvnet: truncated OK response: %w", ErrProtocol)
	}
	kind := buf[0]
	buf = buf[1:]
	switch kind {
	case 'V':
		if resp.Value, _, err = readBytes(buf); err != nil {
			return resp, err
		}
	case 'H':
		if resp.Handle, _, err = readUvarint(buf); err != nil {
			return resp, err
		}
	case 'C':
		c := new(lsm.CompactionResult)
		if err = readJSON(buf, c); err != nil {
			return resp, err
		}
		resp.Compact = c
	case 'S':
		s := new(lsm.Stats)
		if err = readJSON(buf, s); err != nil {
			return resp, err
		}
		resp.Stats = s
	default:
		return resp, fmt.Errorf("kvnet: unknown response kind %q: %w", kind, ErrProtocol)
	}
	return resp, nil
}
