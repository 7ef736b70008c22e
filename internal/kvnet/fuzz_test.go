package kvnet

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"repro/internal/lsm"
	"repro/internal/sstable"
)

// FuzzDecodeRequest ensures arbitrary client bytes cannot panic the
// server-side decoder, and that what does decode survives a round trip.
func FuzzDecodeRequest(f *testing.F) {
	for _, req := range []Request{
		{Op: OpPut, Key: []byte("k"), Value: []byte("v")},
		{Op: OpCompact, Strategy: "SI", K: 2},
		{Op: OpWrite, Batch: []BatchOp{
			{Key: []byte("a"), Value: []byte("1")},
			{Delete: true, Key: []byte("b")},
		}},
		{Op: OpVersionedWrite, Batch: []BatchOp{
			{Key: []byte("a"), Value: []byte{RecordFormat, 0, 0, 0, 0, 0, 0, 0, 0, 1, 'v'}},
		}},
		{Op: OpStream, Handle: 3, Start: []byte("a"), End: []byte("z"), Credit: initialCredit},
		{Op: OpStream, Start: nil, End: nil, Credit: 1},
		{Op: OpCredit, Credit: maxCredit},
		{Op: OpCancel},
		{Op: OpSnapshot},
		{Op: OpSnapGet, Handle: 7, Key: []byte("k")},
		{Op: OpRelease, Handle: 7},
	} {
		f.Add(AppendRequest(nil, &req))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff})
	f.Add([]byte{byte(OpWrite) + 1, 1, 'p', 1, 'q', 9})                                       // the retired OpRange's op byte
	f.Add([]byte{byte(OpStream), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f}) // varint overflow
	f.Add(append(binary.AppendUvarint([]byte{byte(OpWrite)}, 1<<60), 0, 1, 'k'))              // 2^60 ops claimed in 13 bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data)
		if err != nil {
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("decode error does not wrap ErrProtocol: %v", err)
			}
			return
		}
		// Valid decodes must re-encode/decode stably.
		again, err := DecodeRequest(AppendRequest(nil, &req))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if again.Op != req.Op || again.Strategy != req.Strategy || again.K != req.K ||
			len(again.Batch) != len(req.Batch) || again.Handle != req.Handle || again.Credit != req.Credit ||
			!bytes.Equal(again.Start, req.Start) || !bytes.Equal(again.End, req.End) || (again.End == nil) != (req.End == nil) {
			t.Fatalf("request changed across round trip: %+v -> %+v", req, again)
		}
	})
}

// FuzzDecodeResponse ensures arbitrary server bytes cannot panic the
// client-side decoder, and that what it rejects wraps ErrProtocol. A
// stream's entries frame is not a Response (Stream walks it in place;
// FuzzChunkEntries), so the decoder rejects one.
func FuzzDecodeResponse(f *testing.F) {
	for _, resp := range []Response{
		{Status: StatusOK, Value: []byte("v")},
		{Status: StatusOK, Handle: 42},
		{Status: StatusError, Code: CodeConfig, Err: "x"},
		{Status: StatusNotFound},
	} {
		f.Add(AppendResponse(nil, resp))
	}
	f.Add([]byte{})
	f.Add([]byte{byte(StatusChunk), 'V', 0})                            // a chunk must be entries
	f.Add([]byte{byte(StatusChunk), 'E', 0xff, 0xff, 0xff, 0xff, 0x0f}) // key length far past the payload
	f.Add(append([]byte{byte(StatusOK), 'E'}, appendEntry(nil, []byte("k"), []byte("v"))...))
	f.Add(append([]byte{byte(StatusChunk), 'E'}, appendEntry(appendEntry(nil, []byte("k"), []byte("v")), []byte("k2"), nil)...))
	f.Add([]byte{byte(StatusChunk), 'E'}) // an empty chunk
	f.Add(AppendResponse(nil, Response{Status: StatusOK, Stats: &lsm.Stats{Tables: 3, CompactionPicks: map[string]uint64{"SI": 2}}}))
	f.Add(AppendResponse(nil, Response{Status: StatusOK, Compact: &lsm.CompactionResult{Strategy: "BT(I)", StepStats: make([]sstable.MergeStats, 2)}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := DecodeResponse(data); err != nil && !errors.Is(err, ErrProtocol) {
			t.Fatalf("decode error does not wrap ErrProtocol: %v", err)
		}
	})
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader: a truncated
// header or body, or a length past MaxMessageSize, fails with ErrProtocol;
// nothing panics; and a hostile length allocates no more than the bytes
// that actually arrive, plus one read-ahead step.
func FuzzReadFrame(f *testing.F) {
	frame := func(tag uint32, req Request) []byte {
		b, _ := endFrame(AppendRequest(beginFrame(nil, tag), &req))
		return b
	}
	f.Add(frame(1, Request{Op: OpGet, Key: []byte("k")}))
	f.Add(frame(0xffffffff, Request{Op: OpCancel}))
	f.Add(append(frame(2, Request{Op: OpCredit, Credit: 8192}), frame(3, Request{Op: OpPing})...))
	f.Add(frame(4, Request{Op: OpPut, Key: []byte("k"), Value: make([]byte, 300)})[:100]) // cut mid-body
	f.Add([]byte{0xff, 0xff, 0xff, 0x01, 0, 0, 0, 0})                                     // 32 MiB claimed, none sent
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})                                     // over MaxMessageSize
	f.Add([]byte{1, 0, 0})                                                                // cut mid-header
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		r := bufio.NewReader(src)
		unread := func() int { return src.Len() + r.Buffered() }
		var buf []byte
		for {
			tag, payload, err := readFrame(r, buf)
			if cap(payload) > len(data)+readChunk {
				t.Fatalf("buffer of %d bytes for %d bytes of input", cap(payload), len(data))
			}
			if err == io.EOF && unread() == 0 {
				return // clean end at a frame boundary
			}
			if err != nil {
				if !errors.Is(err, ErrProtocol) {
					t.Fatalf("frame error does not wrap ErrProtocol: %v", err)
				}
				return
			}
			again, _ := endFrame(append(beginFrame(nil, tag), payload...))
			if !bytes.HasSuffix(data[:len(data)-unread()], again) {
				t.Fatalf("frame (tag %d, %d bytes) does not re-encode to the bytes it was read from", tag, len(payload))
			}
			buf = payload
		}
	})
}

// FuzzChunkEntries walks arbitrary bytes as a stream chunk the way the
// client iterator does, in place: garbage ends with ErrProtocol, never a
// panic, and never yields more bytes than the chunk holds.
func FuzzChunkEntries(f *testing.F) {
	f.Add(appendEntry(appendEntry(nil, []byte("a"), []byte("1")), []byte("b"), nil))
	f.Add([]byte{1, 'a'})          // value missing
	f.Add([]byte{0x80})            // unterminated varint
	f.Add([]byte{5, 'a', 'b'})     // key longer than the chunk
	f.Add([]byte{0, 0, 0, 0, 0})   // empty keys and values
	f.Add([]byte{1, 'k', 0xff, 1}) // value length past the end
	f.Fuzz(func(t *testing.T, data []byte) {
		yielded := 0
		for rest := data; len(rest) > 0; {
			var k, v []byte
			var err error
			if k, v, rest, err = nextEntry(rest); err != nil {
				if !errors.Is(err, ErrProtocol) {
					t.Fatalf("entry error does not wrap ErrProtocol: %v", err)
				}
				return
			}
			if yielded += len(k) + len(v); yielded > len(data) {
				t.Fatalf("yielded %d bytes from a %d-byte chunk", yielded, len(data))
			}
		}
	})
}
