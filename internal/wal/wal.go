// Package wal implements the write-ahead log that makes memtable contents
// durable before they are flushed to an sstable. Records are framed in
// batches: each frame carries a length, a CRC32-C checksum and one or more
// record encodings, so a whole batch commits or vanishes atomically.
// Replay stops cleanly at the first torn or corrupt frame, recovering
// everything written before the crash point and reporting how much survived.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/vfs"
)

// Op is the kind of logged operation.
type Op byte

// Operations recorded in the log.
const (
	OpPut Op = iota + 1
	OpDelete
)

// Record is one logged write.
type Record struct {
	Op    Op
	Seq   uint64
	Key   []byte
	Value []byte // empty for OpDelete
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ErrCorrupt reports a record that failed checksum or structural checks.
var ErrCorrupt = errors.New("wal: corrupt record")

// ErrBatchTooLarge reports a batch whose encoding exceeds MaxFrameBytes; it
// cannot be appended as one atomic frame.
var ErrBatchTooLarge = errors.New("wal: batch exceeds max frame size")

// frame layout: u32 payloadLen, u32 crc32(payload), payload. The payload is
// the concatenation of one or more record encodings; the checksum covers
// them all, so a batch is recovered entirely or not at all.
const frameHeader = 8

// MaxFrameBytes bounds a single frame payload. Replay treats a larger
// claimed length as corruption, and AppendBatch refuses to write one.
const MaxFrameBytes = 64 << 20

// appendRecord appends the encoding of r (without framing) to dst.
func appendRecord(dst []byte, r Record) []byte {
	dst = append(dst, byte(r.Op))
	dst = binary.AppendUvarint(dst, r.Seq)
	dst = binary.AppendUvarint(dst, uint64(len(r.Key)))
	dst = append(dst, r.Key...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Value)))
	dst = append(dst, r.Value...)
	return dst
}

// decodeRecord decodes one record from the front of payload, returning the
// remainder. Key and Value are copied out, so the caller may reuse payload.
func decodeRecord(payload []byte) (Record, []byte, error) {
	var r Record
	if len(payload) < 1 {
		return r, nil, ErrCorrupt
	}
	r.Op = Op(payload[0])
	if r.Op != OpPut && r.Op != OpDelete {
		return r, nil, ErrCorrupt
	}
	payload = payload[1:]
	seq, n := binary.Uvarint(payload)
	if n <= 0 {
		return r, nil, ErrCorrupt
	}
	payload = payload[n:]
	r.Seq = seq
	klen, n := binary.Uvarint(payload)
	if n <= 0 || uint64(len(payload[n:])) < klen {
		return r, nil, ErrCorrupt
	}
	payload = payload[n:]
	r.Key = append([]byte(nil), payload[:klen]...)
	payload = payload[klen:]
	vlen, n := binary.Uvarint(payload)
	if n <= 0 || uint64(len(payload[n:])) < vlen {
		return r, nil, ErrCorrupt
	}
	payload = payload[n:]
	r.Value = append([]byte(nil), payload[:vlen]...)
	return r, payload[vlen:], nil
}

// Writer appends records to a log file. It is not safe for concurrent use;
// callers serialize appends (the LSM engine's commit pipeline has a single
// leader writing at a time).
//
// A failed append rolls the file back to the end of the last good frame,
// so later appends stay recoverable; if the rollback itself fails — or an
// fsync fails, after which the page cache can no longer be trusted — the
// writer is poisoned: every subsequent AppendBatch and Sync
// returns the sticky error. Without this, a torn frame in the middle of
// the log would silently cut off every later (even fsynced and
// acknowledged) record at replay, which stops at the first damaged frame.
type Writer struct {
	f    vfs.File
	size int64
	buf  []byte // reusable frame encode buffer
	err  error  // sticky: the log tail is no longer trustworthy
}

// Create opens (truncating) a new log file at path through fsys.
func Create(fsys vfs.FS, path string) (*Writer, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, fmt.Errorf("wal: create: %w", err)
	}
	return &Writer{f: f}, nil
}

// AppendBatch writes all of recs as a single frame — one buffer encode, one
// checksum, one write syscall — so the batch is atomic on replay: a crash
// either preserves every record or none. The encode buffer is reused across
// calls; appending a batch allocates only when the batch outgrows every
// previous one. Call Sync for durability.
func (w *Writer) AppendBatch(recs []Record) error {
	if w.err != nil {
		return w.err
	}
	if len(recs) == 0 {
		return nil
	}
	var hdr [frameHeader]byte
	w.buf = append(w.buf[:0], hdr[:]...)
	for _, r := range recs {
		w.buf = appendRecord(w.buf, r)
	}
	payload := w.buf[frameHeader:]
	if len(payload) > MaxFrameBytes {
		return fmt.Errorf("%w: %d bytes", ErrBatchTooLarge, len(payload))
	}
	binary.LittleEndian.PutUint32(w.buf[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(w.buf[4:8], crc32.Checksum(payload, crcTable))
	if n, err := w.f.Write(w.buf); err != nil {
		if n > 0 {
			// A partial frame reached the file. Roll the log back to the
			// last good frame so later appends stay replayable; if that
			// fails, poison the writer — replay would stop at this torn
			// frame and silently discard everything appended after it.
			if _, serr := w.f.Seek(w.size, io.SeekStart); serr != nil {
				w.err = fmt.Errorf("wal: log poisoned: partial append not rolled back: %w", serr)
			} else if terr := w.f.Truncate(w.size); terr != nil {
				w.err = fmt.Errorf("wal: log poisoned: partial append not rolled back: %w", terr)
			}
		}
		return fmt.Errorf("wal: append: %w", err)
	}
	w.size += int64(len(w.buf))
	return nil
}

// Sync flushes the log to stable storage. A sync failure poisons the
// writer: after a failed fsync the kernel may have dropped the dirty
// pages, so nothing appended afterwards could be trusted as durable.
func (w *Writer) Sync() error {
	if w.err != nil {
		return w.err
	}
	if err := w.f.Sync(); err != nil {
		w.err = fmt.Errorf("wal: log poisoned by failed sync: %w", err)
		return err
	}
	return nil
}

// Err returns the sticky error, if the writer has been poisoned.
func (w *Writer) Err() error { return w.err }

// Close closes the underlying file.
func (w *Writer) Close() error { return w.f.Close() }

// ReplayStats reports what Replay recovered and where it stopped.
type ReplayStats struct {
	// Records is the number of records delivered to the callback.
	Records int
	// Batches is the number of intact frames replayed; each frame is one
	// atomically-committed batch.
	Batches int
	// GoodBytes is the byte offset of the end of the surviving prefix: the
	// log up to this offset replayed cleanly.
	GoodBytes int64
	// Truncated reports that replay stopped at damage — a torn tail, a
	// checksum failure, or an implausible frame length — rather than a
	// clean end-of-file. The surviving prefix was still recovered.
	Truncated bool
}

// Replay reads records from path in order, invoking fn for each. A clean
// EOF or a torn/corrupt tail ends replay without error — the standard
// recovery contract: everything durably appended before the damage is
// recovered, the damaged suffix is discarded. A frame's records are
// delivered all-or-nothing: structural damage anywhere in a frame discards
// the whole frame (and everything after it) so no batch is half-applied.
// The returned stats report the recovered count, the byte offset of the
// surviving prefix, and whether replay stopped at damage, letting callers
// surface truncated recoveries instead of mistaking them for clean ones.
func Replay(fsys vfs.FS, path string, fn func(Record) error) (ReplayStats, error) {
	var st ReplayStats
	rf, err := fsys.Open(path)
	if err != nil {
		return st, fmt.Errorf("wal: open for replay: %w", err)
	}
	defer rf.Close()
	f := io.NewSectionReader(rf, 0, math.MaxInt64)

	var (
		header  [frameHeader]byte
		payload []byte   // reused across frames
		recs    []Record // reused across frames
	)
	for {
		if _, err := io.ReadFull(f, header[:]); err != nil {
			if err == io.EOF {
				return st, nil // clean end
			}
			if err == io.ErrUnexpectedEOF {
				st.Truncated = true // torn header
				return st, nil
			}
			return st, fmt.Errorf("wal: replay read: %w", err)
		}
		plen := binary.LittleEndian.Uint32(header[0:4])
		want := binary.LittleEndian.Uint32(header[4:8])
		if plen > MaxFrameBytes {
			st.Truncated = true // implausible length
			return st, nil
		}
		if cap(payload) < int(plen) {
			payload = make([]byte, plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(f, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				st.Truncated = true // torn payload
				return st, nil
			}
			return st, fmt.Errorf("wal: replay read: %w", err)
		}
		if crc32.Checksum(payload, crcTable) != want {
			st.Truncated = true // corrupt frame: stop at last good prefix
			return st, nil
		}
		// Decode the whole frame before delivering anything, so a frame
		// (= batch) is never half-applied.
		recs = recs[:0]
		rest := payload
		for len(rest) > 0 {
			var rec Record
			rec, rest, err = decodeRecord(rest)
			if err != nil {
				st.Truncated = true
				return st, nil
			}
			recs = append(recs, rec)
		}
		for _, rec := range recs {
			if err := fn(rec); err != nil {
				return st, err
			}
			st.Records++
		}
		st.Batches++
		st.GoodBytes += int64(frameHeader) + int64(plen)
	}
}
