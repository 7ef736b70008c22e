// Package sstable implements immutable sorted string tables: the on-disk
// unit that LSM compaction reads, merges and rewrites (Figure 1 and 2 of
// the paper). A table is written once by a Writer from a sorted entry
// stream, then served by a Reader that supports point lookups (via a block
// index and a Bloom filter) and ordered scans.
//
// # File format (version 3, "STBL003F")
//
// All integers are little-endian; varints use encoding/binary's uvarint.
//
//	file    := block* chunk* top-index bloom bounds footer
//	block   := codec byte, rawLen uvarint, body, crc32
//	           (crc over codec+rawLen+body; rawLen is the uncompressed
//	           body length, bounding the decode allocation exactly)
//	           codec 0: body is raw prefix-compressed entries
//	           codec 1: body is DEFLATE-compressed entries
//	           (any other codec byte is corruption)
//	entries := entry* restartOff u32 × numRestarts, numRestarts u32
//	entry   := sharedLen uvarint    (0 at restart points)
//	           unsharedLen uvarint
//	           seq uvarint
//	           flags byte           (bit 0: tombstone)
//	           unshared key bytes
//	           valLen uvarint, val  (omitted entirely when tombstone)
//	chunk   := count uvarint
//	           (firstKeyLen uvarint, firstKey, offset uvarint, length uvarint)*
//	           crc32
//	top-index := chunkCount uvarint
//	           (firstKeyLen uvarint, firstKey, chunkOff uvarint, chunkLen uvarint)*
//	           crc32
//	bloom   := filter bytes, crc32
//	bounds  := smallestLen uvarint, smallestKey,
//	           largestLen uvarint, largestKey,
//	           minSeq uvarint, maxSeq uvarint,
//	           [sketchLen uvarint, sketch]   (version 3 only)
//	           crc32
//	footer  := indexOff u64, indexLen u64, bloomOff u64, bloomLen u64,
//	           entryCount u64, keyBytes u64, valBytes u64,
//	           boundsOff u64, boundsLen u64,
//	           magic u64 (0x5354424c30303346 "STBL003F")
//
// Version 3 data blocks store keys with shared-prefix compression and end
// in a restart-point offset array: every restartInterval-th entry is
// written with a full key (sharedLen 0) and its offset recorded, so a
// point lookup binary-searches the restart array to the right restart and
// then walks at most one interval of entries instead of scanning the whole
// block linearly. The block index is partitioned into fixed-size chunks
// located by a small top-level index; Open materializes only the top
// level, and each chunk is parsed lazily the first time a lookup or scan
// lands in it, so opening a very large table no longer decodes its entire
// index up front.
//
// # Footer versions
//
// Version 2 ("STBL002F", 80-byte footer) tables use the legacy block
// format: entries stored back to back with full keys (no restart array),
// block frames without the rawLen field, and a single flat index block:
//
//	blockV2 := codec byte, body, crc32
//	entryV2 := seq uvarint, flags byte, keyLen uvarint, key
//	           [valLen uvarint, val]
//	indexV2 := count uvarint
//	           (firstKeyLen uvarint, firstKey, offset uvarint, length uvarint)*
//	           crc32
//
// Version 2 added the bounds block: the table's smallest and largest key
// plus its sequence-number range, which the engine's read path uses to
// prune point lookups to the tables whose key range covers the probe and
// to stop probing once no remaining table can hold a newer version.
// Version-3 tables extend the bounds payload (inside the same CRC frame)
// with an optional trailing HyperLogLog sketch of the table's keys, which
// compaction strategies use to estimate inter-table overlap without
// reading any data blocks. Decoders that predate the extension parse the
// bounds fields and ignore the tail, so the extension needs no new footer
// version; tables written before it simply carry no sketch.
// Version 1 ("STBL001F", 64-byte footer, no bounds block) tables remain
// readable: the reader detects the old magic and backfills the bounds at
// open time from the block index (smallest key) and the last data block
// (largest key); the sequence range is unknowable without a full scan, so
// it degrades to [0, MaxUint64], which disables early exit for that table
// but never affects correctness. All three versions are distinguished by
// the trailing footer magic and stay readable side by side.
//
// Per-block CRCs catch torn writes and bit rot; a corrupt block fails reads
// with ErrCorrupt rather than returning wrong data.
package sstable

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/hll"
	"repro/internal/kverr"
)

// BlockSize is the default target uncompressed payload size of a data
// block. Entries never span blocks; a block may exceed the target by one
// entry.
const BlockSize = 4096

// Table format versions, selected by WriterOptions.FormatVersion and
// reported by Reader.FooterVersion.
const (
	// FormatV1 is the legacy 64-byte footer without a bounds block.
	// Readable only; the Writer no longer produces it.
	FormatV1 = 1
	// FormatV2 is the legacy flat-index format with a bounds block.
	FormatV2 = 2
	// FormatV3 adds restart-point binary search, shared-prefix key
	// encoding, per-block rawLen framing and the partitioned index.
	FormatV3 = 3
	// FormatLatest is the version new tables are written with by default.
	FormatLatest = FormatV3
)

// Compression selects the data-block codec used by a Writer.
type Compression int

// Supported codecs.
const (
	// NoCompression stores entry bytes as-is.
	NoCompression Compression = iota
	// Flate compresses each data block with DEFLATE (BestSpeed). Blocks
	// that do not shrink are stored raw, so pathological inputs never pay
	// a size penalty.
	Flate
)

// codec byte values stored per block.
const (
	codecRaw   byte = 0
	codecFlate byte = 1
)

// maxBlockPayload caps a decoded block for legacy (version 1 and 2)
// codec-1 frames, which do not carry their uncompressed length: the cap
// must stay generous because a block legitimately exceeds BlockSize by one
// entry, and a single entry may hold a multi-megabyte value. Version-3
// frames declare rawLen (covered by the block CRC), so their decode
// allocates exactly the declared size and this worst-case cap is only a
// backstop sanity bound on the declared value.
const maxBlockPayload = 64 << 20

// MagicV1 identifies a version-1 sstable file (no bounds block); it
// spells "STBL001F".
const MagicV1 uint64 = 0x5354424c30303146

// MagicV2 identifies a version-2 sstable file; it spells "STBL002F".
// Version 2 appends a bounds block (key range and sequence range) and
// extends the footer to locate it; see the package comment.
const MagicV2 uint64 = 0x5354424c30303246

// Magic is retained as an alias for the version-2 magic for older callers.
const Magic = MagicV2

// MagicV3 identifies a current (version 3) sstable file; it spells
// "STBL003F": restart-point blocks, prefix-compressed keys, partitioned
// index. The footer layout is identical to version 2.
const MagicV3 uint64 = 0x5354424c30303346

// footerV1Size and footerSize are the fixed byte lengths of the version-1
// and version-2/3 footers.
const (
	footerV1Size = 8 * 8
	footerSize   = 10 * 8
)

// ErrCorrupt reports a structurally invalid or checksum-failing table. It
// aliases the canonical kverr.ErrCorrupt so corruption detected down here
// satisfies errors.Is at every layer above, including across the wire.
var ErrCorrupt = kverr.ErrCorrupt

// ErrNotFound reports a key absent from the table.
var ErrNotFound = errors.New("sstable: key not found")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

type footer struct {
	indexOff, indexLen   uint64
	bloomOff, bloomLen   uint64
	entryCount           uint64
	keyBytes, valBytes   uint64
	boundsOff, boundsLen uint64 // zero on version-1 tables
}

// marshal encodes the footer with the magic of the given format version
// (2 or 3; both share the 80-byte layout).
func (f *footer) marshal(version int) []byte {
	magic := MagicV3
	if version == FormatV2 {
		magic = MagicV2
	}
	buf := make([]byte, footerSize)
	binary.LittleEndian.PutUint64(buf[0:], f.indexOff)
	binary.LittleEndian.PutUint64(buf[8:], f.indexLen)
	binary.LittleEndian.PutUint64(buf[16:], f.bloomOff)
	binary.LittleEndian.PutUint64(buf[24:], f.bloomLen)
	binary.LittleEndian.PutUint64(buf[32:], f.entryCount)
	binary.LittleEndian.PutUint64(buf[40:], f.keyBytes)
	binary.LittleEndian.PutUint64(buf[48:], f.valBytes)
	binary.LittleEndian.PutUint64(buf[56:], f.boundsOff)
	binary.LittleEndian.PutUint64(buf[64:], f.boundsLen)
	binary.LittleEndian.PutUint64(buf[72:], magic)
	return buf
}

// unmarshalFooter decodes a version-3/2 (80-byte) or version-1 (64-byte)
// footer, distinguished by the trailing magic, and reports which version
// it found.
func unmarshalFooter(buf []byte) (footer, int, error) {
	var f footer
	version := 0
	switch {
	case len(buf) == footerSize && binary.LittleEndian.Uint64(buf[72:]) == MagicV3:
		version = FormatV3
	case len(buf) == footerSize && binary.LittleEndian.Uint64(buf[72:]) == MagicV2:
		version = FormatV2
	case len(buf) == footerV1Size && binary.LittleEndian.Uint64(buf[56:]) == MagicV1:
		// Version 1: no bounds block; the reader backfills bounds at open.
		version = FormatV1
	default:
		return f, 0, ErrCorrupt
	}
	if version >= FormatV2 {
		f.boundsOff = binary.LittleEndian.Uint64(buf[56:])
		f.boundsLen = binary.LittleEndian.Uint64(buf[64:])
	}
	f.indexOff = binary.LittleEndian.Uint64(buf[0:])
	f.indexLen = binary.LittleEndian.Uint64(buf[8:])
	f.bloomOff = binary.LittleEndian.Uint64(buf[16:])
	f.bloomLen = binary.LittleEndian.Uint64(buf[24:])
	f.entryCount = binary.LittleEndian.Uint64(buf[32:])
	f.keyBytes = binary.LittleEndian.Uint64(buf[40:])
	f.valBytes = binary.LittleEndian.Uint64(buf[48:])
	return f, version, nil
}

// Bounds describes a table's key range and sequence-number range: the
// pruning metadata the version-2+ bounds block persists. Smallest and
// Largest are both inclusive; an empty table (possible when a compaction
// drops every tombstone) has nil keys and a zero sequence range.
type Bounds struct {
	Smallest, Largest []byte
	MinSeq, MaxSeq    uint64
}

// marshalBounds encodes a bounds block (without the trailing crc32).
func marshalBounds(b Bounds) []byte {
	out := binary.AppendUvarint(nil, uint64(len(b.Smallest)))
	out = append(out, b.Smallest...)
	out = binary.AppendUvarint(out, uint64(len(b.Largest)))
	out = append(out, b.Largest...)
	out = binary.AppendUvarint(out, b.MinSeq)
	out = binary.AppendUvarint(out, b.MaxSeq)
	return out
}

// unmarshalBoundsTail decodes a checksum-verified bounds-block payload and
// returns the unparsed remainder — the extension area version-3 writers put
// the key sketch in. The returned keys are copies, safe to retain.
func unmarshalBoundsTail(payload []byte) (Bounds, []byte, error) {
	var b Bounds
	readKey := func() ([]byte, error) {
		n, w := binary.Uvarint(payload)
		if w <= 0 || uint64(len(payload[w:])) < n {
			return nil, ErrCorrupt
		}
		payload = payload[w:]
		var key []byte
		if n > 0 {
			key = append([]byte(nil), payload[:n]...)
		}
		payload = payload[n:]
		return key, nil
	}
	var err error
	if b.Smallest, err = readKey(); err != nil {
		return b, nil, err
	}
	if b.Largest, err = readKey(); err != nil {
		return b, nil, err
	}
	var w int
	if b.MinSeq, w = binary.Uvarint(payload); w <= 0 {
		return b, nil, ErrCorrupt
	}
	payload = payload[w:]
	if b.MaxSeq, w = binary.Uvarint(payload); w <= 0 {
		return b, nil, ErrCorrupt
	}
	return b, payload[w:], nil
}

// SketchPrecision is the HyperLogLog precision of the per-table key sketch
// the Writer maintains (2^12 registers ≈ 4 KiB, ≈1.6% standard error) —
// the same precision the compaction package's estimators use, so sketches
// read off disk merge directly with model-built ones.
const SketchPrecision = 12

// appendBoundsSketch appends the sketch extension (sketchLen uvarint,
// sketch bytes) to a marshaled bounds payload.
func appendBoundsSketch(payload []byte, s *hll.Sketch) []byte {
	enc := s.Marshal()
	payload = binary.AppendUvarint(payload, uint64(len(enc)))
	return append(payload, enc...)
}

// decodeBoundsSketch parses the optional sketch extension from the bounds
// payload's tail. An empty tail (a pre-extension table) yields a nil
// sketch; bytes after the sketch are reserved for future extensions and
// ignored.
func decodeBoundsSketch(tail []byte) (*hll.Sketch, error) {
	if len(tail) == 0 {
		return nil, nil
	}
	n, w := binary.Uvarint(tail)
	if w <= 0 || uint64(len(tail[w:])) < n {
		return nil, ErrCorrupt
	}
	s, err := hll.Unmarshal(tail[w : w+int(n)])
	if err != nil {
		return nil, ErrCorrupt
	}
	return s, nil
}

// blockHandle locates one data block within the file.
type blockHandle struct {
	firstKey []byte
	offset   uint64
	length   uint64 // payload length, excluding the trailing crc32
}

// chunkHandle locates one index chunk within a version-3 file.
type chunkHandle struct {
	firstKey []byte // first key of the chunk's first block
	offset   uint64
	length   uint64 // framed length including the trailing crc32
}

func appendChecksummed(dst, payload []byte) []byte {
	dst = append(dst, payload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, crcTable))
	return append(dst, crc[:]...)
}

// verifyChecksummed splits payload+crc32 and validates the checksum.
func verifyChecksummed(buf []byte) ([]byte, error) {
	if len(buf) < 4 {
		return nil, ErrCorrupt
	}
	payload, crc := buf[:len(buf)-4], binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if crc32.Checksum(payload, crcTable) != crc {
		return nil, ErrCorrupt
	}
	return payload, nil
}

// blockEncoder frames data blocks, owning the scratch buffers so a Writer
// reuses one set of allocations across every block it emits (the seed
// format built each frame twice: once into a fresh `framed` slice and then
// again through appendChecksummed, costing two allocations and a full copy
// per block on every flush and compaction).
type blockEncoder struct {
	fbuf bytes.Buffer  // flate output, reused across blocks
	fw   *flate.Writer // reused flate encoder
}

// appendBlock appends one framed data block (codec byte, version-3 rawLen,
// body, crc32) to dst and returns the extended slice. Compression falls
// back to raw when it does not shrink the body.
func (e *blockEncoder) appendBlock(dst, entries []byte, compression Compression, version int) ([]byte, error) {
	body := entries
	codec := codecRaw
	if compression == Flate {
		e.fbuf.Reset()
		if e.fw == nil {
			fw, err := flate.NewWriter(&e.fbuf, flate.BestSpeed)
			if err != nil {
				return nil, fmt.Errorf("sstable: flate: %w", err)
			}
			e.fw = fw
		} else {
			e.fw.Reset(&e.fbuf)
		}
		if _, err := e.fw.Write(entries); err != nil {
			return nil, fmt.Errorf("sstable: compress: %w", err)
		}
		if err := e.fw.Close(); err != nil {
			return nil, fmt.Errorf("sstable: compress: %w", err)
		}
		if e.fbuf.Len() < len(entries) {
			body = e.fbuf.Bytes()
			codec = codecFlate
		}
	}
	start := len(dst)
	dst = append(dst, codec)
	if version >= FormatV3 {
		dst = binary.AppendUvarint(dst, uint64(len(entries)))
	}
	dst = append(dst, body...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(dst[start:], crcTable))
	return append(dst, crc[:]...), nil
}

// decodeDataBlock validates and unwraps a checksummed data-block frame of
// the given table format version, returning the raw entry bytes: a
// sub-slice of buf when the frame's codec byte is codecRaw, a fresh
// allocation for every compressed codec.
//
// The decode allocation cap is derived from the version: version-3 frames
// declare their uncompressed length (under the frame CRC), so the decoder
// allocates exactly that much and rejects any stream that produces more or
// less; only legacy codec-1 (DEFLATE) frames, which carry no length, fall
// back to the generous maxBlockPayload cap.
func decodeDataBlock(buf []byte, version int) ([]byte, error) {
	payload, err := verifyChecksummed(buf)
	if err != nil {
		return nil, err
	}
	if len(payload) < 1 {
		return nil, ErrCorrupt
	}
	codec, body := payload[0], payload[1:]
	if version < FormatV3 {
		switch codec {
		case codecRaw:
			return body, nil
		case codecFlate:
			fr := flate.NewReader(bytes.NewReader(body))
			defer fr.Close()
			out, err := io.ReadAll(io.LimitReader(fr, maxBlockPayload+1))
			if err != nil {
				return nil, ErrCorrupt
			}
			if len(out) > maxBlockPayload {
				return nil, ErrCorrupt
			}
			return out, nil
		default:
			return nil, ErrCorrupt
		}
	}
	rawLen64, n := binary.Uvarint(body)
	if n <= 0 || rawLen64 > maxBlockPayload {
		return nil, ErrCorrupt
	}
	rawLen := int(rawLen64)
	body = body[n:]
	switch codec {
	case codecRaw:
		if len(body) != rawLen {
			return nil, ErrCorrupt
		}
		return body, nil
	case codecFlate:
		// The writer stores blocks raw when compression does not shrink
		// them, so a compressed body must be strictly smaller than its
		// declared uncompressed size; anything else is corruption.
		if len(body) >= rawLen {
			return nil, ErrCorrupt
		}
		fr := flate.NewReader(bytes.NewReader(body))
		defer fr.Close()
		out := make([]byte, rawLen)
		if _, err := io.ReadFull(fr, out); err != nil {
			return nil, ErrCorrupt
		}
		// The stream must end exactly at rawLen.
		var one [1]byte
		if n, _ := fr.Read(one[:]); n != 0 {
			return nil, ErrCorrupt
		}
		return out, nil
	default:
		return nil, ErrCorrupt
	}
}
