package sstable

import (
	"bytes"
	"encoding/binary"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/iterator"
)

// Data blocks: prefix-compressed entries terminated by a
// restart-point offset array. Every restartInterval-th entry is a restart:
// it stores its full key (sharedLen 0) and its byte offset is recorded in
// the trailer, so a point lookup binary-searches the restart array and
// then decodes at most one interval of entries instead of walking the
// whole block. Entries between restarts store only the suffix that
// differs from the previous key.

// restartInterval is the number of entries between restart points. 16 is
// the LevelDB/RocksDB default: small enough that the post-search linear
// walk is short, large enough that the u32-per-restart trailer and the
// full keys at restarts cost little.
const restartInterval = 16

// blockBuilder accumulates one data block.
type blockBuilder struct {
	buf      []byte
	restarts []uint32
	prevKey  []byte
	count    int
}

func (b *blockBuilder) empty() bool { return b.count == 0 }

// size returns the encoded size the block would have if finished now.
func (b *blockBuilder) size() int { return len(b.buf) + 4*len(b.restarts) + 4 }

func (b *blockBuilder) reset() {
	b.buf = b.buf[:0]
	b.restarts = b.restarts[:0]
	b.prevKey = b.prevKey[:0]
	b.count = 0
}

func sharedPrefix(a, b []byte) int {
	a = a[:min(len(a), len(b))]
	b = b[:len(a)]
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// frameWith returns the size of the frame appendBlock would make of the block
// with e added: e's entry, whose key is whole at a restart point, and there
// one more trailer slot.
func (b *blockBuilder) frameWith(e iterator.Entry) int {
	shared, n := 0, b.size()+4
	if b.count%restartInterval != 0 {
		shared, n = sharedPrefix(b.prevKey, e.Key), b.size()
	}
	n += uvarintLen(uint64(shared)) + uvarintLen(uint64(len(e.Key)-shared)) + uvarintLen(e.Seq) + 1 + len(e.Key) - shared
	if !e.Tombstone {
		n += uvarintLen(uint64(len(e.Value))) + len(e.Value)
	}
	return 1 + uvarintLen(uint64(n)) + n + 4
}

func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// add appends an entry; keys must arrive in strictly increasing order
// (the Writer enforces this).
func (b *blockBuilder) add(e iterator.Entry) {
	shared := 0
	if b.count%restartInterval == 0 {
		b.restarts = append(b.restarts, uint32(len(b.buf)))
	} else {
		shared = sharedPrefix(b.prevKey, e.Key)
	}
	b.buf = binary.AppendUvarint(b.buf, uint64(shared))
	b.buf = binary.AppendUvarint(b.buf, uint64(len(e.Key)-shared))
	b.buf = binary.AppendUvarint(b.buf, e.Seq)
	var flags byte
	if e.Tombstone {
		flags |= 1
	}
	b.buf = append(b.buf, flags)
	b.buf = append(b.buf, e.Key[shared:]...)
	if !e.Tombstone {
		b.buf = binary.AppendUvarint(b.buf, uint64(len(e.Value)))
		b.buf = append(b.buf, e.Value...)
	}
	b.prevKey = append(b.prevKey[:0], e.Key...)
	b.count++
}

// finish appends the restart trailer and returns the complete block
// payload, which aliases the builder's buffer until the next reset.
func (b *blockBuilder) finish() []byte {
	for _, r := range b.restarts {
		b.buf = binary.LittleEndian.AppendUint32(b.buf, r)
	}
	b.buf = binary.LittleEndian.AppendUint32(b.buf, uint32(len(b.restarts)))
	return b.buf
}

// parsedBlock is a validated view over a block payload: the
// entry region and the restart offsets, both aliasing the payload.
type parsedBlock struct {
	data     []byte // entry region
	restarts []byte // restart array (4 bytes per restart)
	n        int    // number of restarts
}

// parseV3Block splits and validates a block payload. Restart offsets must
// be strictly ascending, start at 0 and point inside the entry region;
// garbage counts, truncated arrays and out-of-order offsets all fail with
// ErrCorrupt here, before any entry is decoded.
func parseV3Block(payload []byte) (parsedBlock, error) {
	var pb parsedBlock
	if len(payload) < 4 {
		return pb, ErrCorrupt
	}
	n := int(binary.LittleEndian.Uint32(payload[len(payload)-4:]))
	if n < 0 || n > (len(payload)-4)/4 {
		return pb, ErrCorrupt
	}
	dataLen := len(payload) - 4 - 4*n
	pb.data = payload[:dataLen]
	pb.restarts = payload[dataLen : len(payload)-4]
	pb.n = n
	if n == 0 {
		// Only the degenerate empty block has no restarts; any entry bytes
		// without a restart covering them are unreachable, i.e. corrupt.
		if dataLen != 0 {
			return pb, ErrCorrupt
		}
		return pb, nil
	}
	prev := -1
	for i := 0; i < n; i++ {
		off := int(binary.LittleEndian.Uint32(pb.restarts[4*i:]))
		if off <= prev || off >= dataLen {
			return pb, ErrCorrupt
		}
		prev = off
	}
	if int(binary.LittleEndian.Uint32(pb.restarts)) != 0 {
		return pb, ErrCorrupt
	}
	return pb, nil
}

func (pb *parsedBlock) restartOffset(i int) int {
	return int(binary.LittleEndian.Uint32(pb.restarts[4*i:]))
}

// v3EntryHeader is the decoded fixed part of one entry.
type v3EntryHeader struct {
	shared, unshared int
	seq              uint64
	tombstone        bool
	keySuffix        []byte // unshared key bytes, aliasing the block
	value            []byte // aliasing the block; nil for tombstones
	next             int    // offset of the following entry
}

// decodeV3Header parses the entry at data[off:] into h, which is an
// out-parameter purely to keep the per-entry decode free of struct copies
// on the hot read path. prevKeyLen bounds the shared-prefix length; a
// shared length exceeding the previous key is prefix-encoding corruption.
func decodeV3Header(h *v3EntryHeader, data []byte, off, prevKeyLen int) error {
	buf := data[off:]
	consumed := 0
	shared, w := binary.Uvarint(buf)
	if w <= 0 || shared > uint64(prevKeyLen) {
		return ErrCorrupt
	}
	buf = buf[w:]
	consumed += w
	unshared, w := binary.Uvarint(buf)
	if w <= 0 {
		return ErrCorrupt
	}
	buf = buf[w:]
	consumed += w
	seq, w := binary.Uvarint(buf)
	if w <= 0 {
		return ErrCorrupt
	}
	buf = buf[w:]
	consumed += w
	if len(buf) < 1 {
		return ErrCorrupt
	}
	flags := buf[0]
	buf = buf[1:]
	consumed++
	if uint64(len(buf)) < unshared {
		return ErrCorrupt
	}
	h.shared = int(shared)
	h.unshared = int(unshared)
	h.seq = seq
	h.tombstone = flags&1 != 0
	h.keySuffix = buf[:unshared:unshared]
	buf = buf[unshared:]
	consumed += int(unshared)
	h.value = nil
	if !h.tombstone {
		vlen, w := binary.Uvarint(buf)
		if w <= 0 || uint64(len(buf[w:])) < vlen {
			return ErrCorrupt
		}
		consumed += w
		h.value = buf[w : uint64(w)+vlen : uint64(w)+vlen]
		consumed += int(vlen)
	}
	h.next = off + consumed
	return nil
}

// restartKey returns the full key stored at restart i, aliasing the block
// (restart entries have sharedLen 0 by construction; anything else is
// corruption).
func (pb *parsedBlock) restartKey(i int) ([]byte, error) {
	var h v3EntryHeader
	if err := decodeV3Header(&h, pb.data, pb.restartOffset(i), 0); err != nil {
		return nil, err
	}
	return h.keySuffix, nil
}

// searchV3Block finds target in a parsed block: binary search to
// the greatest restart whose key is <= target, then a linear walk of at
// most one interval. On a hit h holds the matched entry (its keySuffix and
// value alias the payload); the full key is not materialized — it is by
// definition byte-identical to target. The walk compares incrementally:
// it tracks p, the length of the common prefix of the previous key and
// target, so each entry costs one comparison of its unshared suffix and
// no key reconstruction.
func searchV3Block(pb parsedBlock, target []byte, h *v3EntryHeader) error {
	if pb.n == 0 {
		return ErrNotFound
	}
	lo, hi := 0, pb.n-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		k, err := pb.restartKey(mid)
		if err != nil {
			return err
		}
		if bytes.Compare(k, target) <= 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	off := pb.restartOffset(lo)
	end := len(pb.data)
	if lo+1 < pb.n {
		end = pb.restartOffset(lo + 1)
	}
	prevLen := 0 // length of the previous entry's key
	p := 0       // length of the common prefix of the previous key and target
	for off < end {
		if err := decodeV3Header(h, pb.data, off, prevLen); err != nil {
			return err
		}
		// Keys ascend, so every previous key was < target. If this entry
		// shares more than p bytes with the previous key, it inherits the
		// previous key's first divergence from target (at position p, below
		// target's byte there) and is still < target: skip without comparing.
		if h.shared <= p {
			// prev[:shared] == target[:shared], so the order of this key and
			// target is the order of the unshared suffix and target[shared:].
			rest := target[h.shared:]
			n := len(h.keySuffix)
			if n > len(rest) {
				n = len(rest)
			}
			d := 0
			for d < n && h.keySuffix[d] == rest[d] {
				d++
			}
			switch {
			case d < n && h.keySuffix[d] < rest[d]:
				p = h.shared + d // still below target; record the divergence
			case d < n:
				return ErrNotFound // first key above target: not present
			case len(h.keySuffix) == len(rest):
				return nil // exact match
			case len(h.keySuffix) < len(rest):
				p = h.shared + d // proper prefix of target: below it
			default:
				return ErrNotFound // target is a proper prefix: this key is above
			}
		}
		prevLen = h.shared + len(h.keySuffix)
		off = h.next
	}
	return ErrNotFound
}

// keyArena is the backing store for the keys of one block that a block
// iterator has to rebuild from their prefix-compressed form (and for a
// Writer's index keys). It only appends while that block's keys may be read,
// and empty makes it ready for a later block, keeping its newest chunk: in
// steady state a scan rebuilds every key in memory it already has.
type keyArena struct {
	buf []byte
}

// maxArenaChunk caps the block size a chunk is fitted to: a block of one
// large value does not cost a chunk of its size.
const maxArenaChunk = 4096

// empty drops every key; under cache.PoisonFreed the kept chunk is
// overwritten, so a key read after its block was left behind fails a check
// instead of passing.
func (a *keyArena) empty() {
	a.buf = a.buf[:0]
	if cache.PoisonFreed.Load() {
		chunk := a.buf[:cap(a.buf)]
		for i := range chunk {
			chunk[i] = 0xdb
		}
	}
}

// alloc returns n bytes nothing else handed out since the last empty. A
// chunk too full for them is replaced — its keys stay valid — by one that
// fits a block of blockSize bytes (up to maxArenaChunk), or twice the last
// when a block's keys outgrew that.
func (a *keyArena) alloc(n, blockSize int) []byte {
	if cap(a.buf)-len(a.buf) < n {
		a.buf = make([]byte, 0, max(n, min(blockSize, maxArenaChunk), 2*cap(a.buf)))
	}
	a.buf = a.buf[:len(a.buf)+n]
	return a.buf[len(a.buf)-n:]
}

// v3BlockIter walks blocks in order, one after another: enter
// positions it on a block. Keys stored whole — restart keys — alias the
// block payload directly, which keeps roughly one key per interval out of
// the arenas for free; the rest are rebuilt into the arena of their block.
// The two arenas alternate: entering a block empties the one the block
// before the previous one used, so a key stays valid exactly as long as a
// block's pin does — until the second following Next. The zero value is
// positioned past the end of an empty block.
type v3BlockIter struct {
	pb     parsedBlock
	off    int
	curKey []byte // full key of the entry most recently decoded
	arenas [2]keyArena
	cur    int // the arena of the current block
}

// enter positions the iterator before the first entry of payload.
func (it *v3BlockIter) enter(payload []byte) error {
	pb, err := parseV3Block(payload)
	if err != nil {
		return err
	}
	it.pb, it.off, it.curKey = pb, 0, nil
	it.cur ^= 1
	it.arenas[it.cur].empty()
	return nil
}

// leave abandons the current block, so next reports its end.
func (it *v3BlockIter) leave() { it.pb, it.off, it.curKey = parsedBlock{}, 0, nil }

// next decodes the following entry into dst; ok is false at the end of the
// block. dst is an out-parameter so block iteration does not copy a
// two-slice Entry struct (and pay its write barriers) through every layer
// of the iterator stack per entry.
func (it *v3BlockIter) next(dst *iterator.Entry) (bool, error) {
	if it.off >= len(it.pb.data) {
		return false, nil
	}
	var h v3EntryHeader
	if err := decodeV3Header(&h, it.pb.data, it.off, len(it.curKey)); err != nil {
		return false, err
	}
	if h.shared == 0 {
		// Full key: alias the block payload, no arena copy needed.
		it.curKey = h.keySuffix
	} else {
		nk := it.arenas[it.cur].alloc(h.shared+h.unshared, len(it.pb.data))
		copy(nk, it.curKey[:h.shared])
		copy(nk[h.shared:], h.keySuffix)
		it.curKey = nk
	}
	it.off = h.next
	dst.Key = it.curKey
	dst.Value = h.value
	dst.Seq = h.seq
	dst.Tombstone = h.tombstone
	return true, nil
}
