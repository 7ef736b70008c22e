// Package sstable implements immutable sorted string tables: the on-disk
// unit that LSM compaction reads, merges and rewrites (Figure 1 and 2 of
// the paper). A table is written once by a Writer from a sorted entry
// stream, then served by a Reader that supports point lookups (via a block
// index and a Bloom filter) and ordered scans.
//
// # File format ("STBL004F")
//
// There is one format. All integers are little-endian; varints use
// encoding/binary's uvarint.
//
//	file    := block* chunk* top-index bloom bounds footer
//	block   := codec byte, rawLen uvarint, body, crc32
//	           (crc over codec+rawLen+body; codec is 0 and the body is the
//	           rawLen bytes of raw prefix-compressed entries; any other
//	           codec byte is corruption — 1 and 2 were retired codecs)
//	entries := entry* restartOff u32 × numRestarts, numRestarts u32
//	entry   := sharedLen uvarint    (0 at restart points)
//	           unsharedLen uvarint
//	           seq uvarint
//	           flags byte           (bit 0: tombstone)
//	           unshared key bytes
//	           valLen uvarint, val  (omitted entirely when tombstone)
//	chunk   := count uvarint
//	           (keyLen uvarint, key, offset uvarint, length uvarint)*
//	           crc32
//	top-index := chunkCount uvarint
//	           (keyLen uvarint, key, chunkOff uvarint, chunkLen uvarint)*
//	           crc32
//	bloom   := filter bytes (package bloom's Marshal), crc32
//	bounds  := smallestLen uvarint, smallestKey,
//	           largestLen uvarint, largestKey,
//	           minSeq uvarint, maxSeq uvarint,
//	           sketchLen uvarint, sketch (package hll's Marshal),
//	           crc32
//	footer  := indexOff u64, indexLen u64, bloomOff u64, bloomLen u64,
//	           entryCount u64, keyBytes u64, valBytes u64,
//	           boundsOff u64, boundsLen u64,
//	           magic u64 (0x5354424c30303446 "STBL004F")
//
// Data blocks store keys with shared-prefix compression and end in a
// restart-point offset array: every restartInterval-th entry is written
// with a full key (sharedLen 0) and its offset recorded, so a point lookup
// binary-searches the restart array to the right restart and then walks at
// most one interval of entries instead of scanning the whole block. The
// block index is partitioned into fixed-size chunks located by a small
// top-level index; Open materializes only the top level, and each chunk is
// parsed lazily the first time a lookup or scan lands in it. A block's index
// key is the shortest prefix of its first key above the previous block's last
// key (the first block's is its first key whole); a lookup takes the last
// handle whose key is <= the probe.
//
// The Bloom filter probes bit (fmix64(H1) + i·fmix64(H2) mod 2^64) mod nbits
// for i < k, where H1 and H2 are keyhash.Of(key) and fmix64 is splitmix64's
// finaliser. The bounds block holds the table's smallest and largest key,
// its sequence-number range — which the engine's read path prunes point
// lookups with — and a HyperLogLog sketch of its keys, which compaction
// strategies estimate inter-table overlap from without reading data blocks.
//
// Tables of earlier formats (magics "STBL001F" to "STBL003F") are refused
// with ErrCorrupt: their filters were probed without the finaliser, and
// read with it they would deny keys they hold.
//
// Per-block CRCs catch torn writes and bit rot; a corrupt block fails reads
// with ErrCorrupt rather than returning wrong data.
package sstable

import (
	"encoding/binary"
	"errors"
	"hash/crc32"

	"repro/internal/hll"
	"repro/internal/kverr"
)

// BlockSize is the default target size of a data block's frame (codec byte,
// length, body, checksum), three cache granules. The Writer cuts a block before
// the entry that would take it past the target — only a lone larger entry gets
// a bigger block — so a block read from the device fits one cache array this size.
const BlockSize = 1536

// codecRaw is the codec byte of every data block.
const codecRaw byte = 0

// Magic identifies an sstable file; it spells "STBL004F".
const Magic uint64 = 0x5354424c30303446

// footerSize is the fixed byte length of the footer.
const footerSize = 10 * 8

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
	boundsOff, boundsLen uint64
}

func (f *footer) marshal() []byte {
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
	binary.LittleEndian.PutUint64(buf[72:], Magic)
	return buf
}

// unmarshalFooter decodes a footer; any magic but Magic is ErrCorrupt.
func unmarshalFooter(buf []byte) (footer, error) {
	if len(buf) != footerSize || binary.LittleEndian.Uint64(buf[72:]) != Magic {
		return footer{}, ErrCorrupt
	}
	return footer{
		indexOff:   binary.LittleEndian.Uint64(buf[0:]),
		indexLen:   binary.LittleEndian.Uint64(buf[8:]),
		bloomOff:   binary.LittleEndian.Uint64(buf[16:]),
		bloomLen:   binary.LittleEndian.Uint64(buf[24:]),
		entryCount: binary.LittleEndian.Uint64(buf[32:]),
		keyBytes:   binary.LittleEndian.Uint64(buf[40:]),
		valBytes:   binary.LittleEndian.Uint64(buf[48:]),
		boundsOff:  binary.LittleEndian.Uint64(buf[56:]),
		boundsLen:  binary.LittleEndian.Uint64(buf[64:]),
	}, nil
}

// Bounds describes a table's key range and sequence-number range: the
// pruning metadata the bounds block persists. Smallest and
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
// returns the unparsed remainder, which holds the key sketch. The returned
// keys are copies, safe to retain.
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

// appendBoundsSketch appends the sketch (sketchLen uvarint, sketch bytes) to
// a marshaled bounds payload.
func appendBoundsSketch(payload []byte, s *hll.Sketch) []byte {
	enc := s.Marshal()
	payload = binary.AppendUvarint(payload, uint64(len(enc)))
	return append(payload, enc...)
}

// decodeBoundsSketch parses the sketch from the bounds payload's tail. Every
// table carries one, so a missing sketch is corruption; bytes after it are
// reserved for future extensions and ignored.
func decodeBoundsSketch(tail []byte) (*hll.Sketch, error) {
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

// blockHandle locates one data block within the file — or, in the top-level
// index, one index chunk — under its index key.
type blockHandle struct {
	key    []byte
	offset uint64
	length uint64 // a block's payload length, excluding its crc32; a chunk's including it
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

// appendBlock appends one framed data block (codec byte, rawLen, body,
// crc32) to dst and returns the extended slice.
func appendBlock(dst, entries []byte) []byte {
	start := len(dst)
	dst = append(dst, codecRaw)
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	dst = append(dst, entries...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(dst[start:], crcTable))
	return append(dst, crc[:]...)
}

// decodeDataBlock validates and unwraps a checksummed data-block frame,
// returning the raw entry bytes, a sub-slice of buf.
func decodeDataBlock(buf []byte) ([]byte, error) {
	payload, err := verifyChecksummed(buf)
	if err != nil {
		return nil, err
	}
	if len(payload) < 1 || payload[0] != codecRaw {
		return nil, ErrCorrupt
	}
	rawLen, n := binary.Uvarint(payload[1:])
	if n <= 0 || rawLen != uint64(len(payload)-1-n) {
		return nil, ErrCorrupt
	}
	return payload[1+n:], nil
}
