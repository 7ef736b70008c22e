package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/bloom"
	"repro/internal/cache"
	"repro/internal/hll"
	"repro/internal/iterator"
	"repro/internal/vfs"
)

// readerIDs hands each Reader a unique ID for block-cache keying.
var readerIDs atomic.Uint64

// FilterMetrics accumulates Bloom-filter effectiveness counters across all
// the readers of a store (tables come and go under compaction, so the
// counters must outlive any single Reader). Negatives are lookups the
// filter rejected without touching a data block — the work the filter
// saved; FalsePositives are lookups the filter let through that found no
// key — the wasted block reads. All fields are safe for concurrent update.
type FilterMetrics struct {
	Negatives      atomic.Uint64
	FalsePositives atomic.Uint64
}

// Cache is the block-cache surface a Reader uses: satisfied by both the
// single cache.LRU and the mutex-striped cache.Sharded. Get returns a
// shared slice callers must not modify; Put transfers ownership of the
// value to the cache. Keys are (table ID, file offset) pairs; a version-3
// table's data blocks and index chunks occupy disjoint offsets in the same
// file, so the one key space covers both without collision.
type Cache interface {
	Get(k cache.Key) ([]byte, bool)
	Put(k cache.Key, value []byte)
	DropTable(table uint64)
}

// Reader serves point lookups and ordered scans from a finished sstable.
// It is safe for concurrent use: all methods read through an io.ReaderAt.
type Reader struct {
	id      uint64
	r       io.ReaderAt
	size    int64
	f       footer
	version int // footer version: 1 (no bounds block), 2, or 3
	bounds  Bounds
	// index is the flat block index of a version-1/2 table; nil for
	// version 3, whose index is partitioned.
	index []blockHandle
	// chunks is the version-3 top-level index; chunkData caches each
	// chunk's parsed handles, loaded lazily the first time a lookup or
	// scan lands in the chunk (open materializes only the top level).
	chunks    []chunkHandle
	chunkData []atomic.Pointer[[]blockHandle]
	filter    *bloom.Filter
	sketch    *hll.Sketch // key sketch from the bounds tail; nil when absent
	closer    io.Closer   // non-nil when the Reader owns the underlying file
	blocks    Cache
	fm        *FilterMetrics
}

// NewReader opens a table stored in r, whose total length is size bytes.
func NewReader(r io.ReaderAt, size int64) (*Reader, error) {
	return NewReaderWithBounds(r, size, nil)
}

// NewReaderWithBounds is NewReader with externally persisted bounds (the
// engine's manifest records each table's bounds): a version-1 table
// adopts a valid hint instead of paying the backfill block read at open.
// The hint is ignored for version-2+ tables — their footer is
// authoritative — and a nil or implausible hint falls back to backfill.
func NewReaderWithBounds(r io.ReaderAt, size int64, hint *Bounds) (*Reader, error) {
	if size < footerV1Size {
		return nil, ErrCorrupt
	}
	// The trailing magic picks the footer version; version 1 (64 bytes,
	// no bounds block) remains readable with bounds backfilled below.
	var magicBuf [8]byte
	if _, err := r.ReadAt(magicBuf[:], size-8); err != nil {
		return nil, fmt.Errorf("sstable: read footer magic: %w", err)
	}
	fsize := int64(footerSize)
	switch binary.LittleEndian.Uint64(magicBuf[:]) {
	case MagicV1:
		fsize = footerV1Size
	case MagicV2, MagicV3:
	default:
		return nil, ErrCorrupt
	}
	if size < fsize {
		return nil, ErrCorrupt
	}
	buf := make([]byte, fsize)
	if _, err := r.ReadAt(buf, size-fsize); err != nil {
		return nil, fmt.Errorf("sstable: read footer: %w", err)
	}
	f, version, err := unmarshalFooter(buf)
	if err != nil {
		return nil, err
	}
	// Validate every footer-referenced region against the file size before
	// any allocation: a corrupt length must fail with ErrCorrupt, not
	// attempt a multi-gigabyte buffer.
	inFile := func(off, length uint64) bool {
		return length <= uint64(size) && off <= uint64(size)-length
	}
	if !inFile(f.indexOff, f.indexLen) || !inFile(f.bloomOff, f.bloomLen) ||
		(version >= FormatV2 && !inFile(f.boundsOff, f.boundsLen)) {
		return nil, ErrCorrupt
	}
	rd := &Reader{id: readerIDs.Add(1), r: r, size: size, f: f, version: version}
	if err := rd.loadIndex(); err != nil {
		return nil, err
	}
	if err := rd.loadBloom(); err != nil {
		return nil, err
	}
	if err := rd.loadBounds(hint); err != nil {
		return nil, err
	}
	return rd, nil
}

// Open opens an sstable file by path; Close releases the file handle.
func Open(path string) (*Reader, error) {
	return OpenWithBounds(path, nil)
}

// OpenWithBounds is Open taking a persisted bounds hint; see
// NewReaderWithBounds.
func OpenWithBounds(path string, hint *Bounds) (*Reader, error) {
	return OpenFS(vfs.Default, path, hint)
}

// OpenFS is OpenWithBounds reading through fsys, so tests can serve table
// reads from a fault-injecting filesystem.
func OpenFS(fsys vfs.FS, path string, hint *Bounds) (*Reader, error) {
	file, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := file.Stat()
	if err != nil {
		file.Close()
		return nil, err
	}
	rd, err := NewReaderWithBounds(file, st.Size(), hint)
	if err != nil {
		file.Close()
		return nil, fmt.Errorf("sstable: open %s: %w", path, err)
	}
	rd.closer = file
	return rd, nil
}

// SetBlockCache attaches a shared cache used for data-block reads. Call
// before serving reads; passing nil disables caching.
func (rd *Reader) SetBlockCache(c Cache) { rd.blocks = c }

// SetFilterMetrics attaches a store-shared Bloom-filter counter set that
// Get updates; passing nil disables counting.
func (rd *Reader) SetFilterMetrics(m *FilterMetrics) { rd.fm = m }

// Close releases the underlying file when the Reader was created by Open
// (otherwise it only detaches cached blocks).
func (rd *Reader) Close() error {
	if rd.blocks != nil {
		rd.blocks.DropTable(rd.id)
	}
	if rd.closer != nil {
		return rd.closer.Close()
	}
	return nil
}

// blockBufPool recycles block-read buffers. A buffer re-enters the pool
// only when the payload provably does not escape the probe: a point
// lookup that misses inside the block (Bloom false positive, key absent
// from its candidate block) recycles, as does the frame buffer of a
// compressed block (its decoded payload is a fresh allocation). Payloads
// handed to the block cache or returned to callers keep their buffers —
// those fall to the garbage collector.
var blockBufPool = sync.Pool{New: func() any { return new([]byte) }}

// getBlockBuf returns a pooled buffer of length n.
func getBlockBuf(n int) *[]byte {
	bp := blockBufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	return bp
}

// maxPooledBlockBuf caps what re-enters the pool: an occasional giant
// block (a multi-megabyte value) must not leave its backing array pinned
// in the pool forever, nor resurface under a small read that would retain
// far more memory than its length suggests.
const maxPooledBlockBuf = 128 << 10

func putBlockBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBlockBuf {
		blockBufPool.Put(bp)
	}
}

// readChecksummed reads and verifies a framed payload+crc32 region. The
// returned payload aliases a freshly allocated buffer the caller owns (the
// index and bloom loaders retain slices of it, so it cannot be pooled).
func (rd *Reader) readChecksummed(off, length uint64) ([]byte, error) {
	buf := make([]byte, length)
	if _, err := rd.r.ReadAt(buf, int64(off)); err != nil {
		return nil, fmt.Errorf("sstable: read at %d: %w", off, err)
	}
	return verifyChecksummed(buf)
}

// readBlock reads and decodes a data block through the block cache when
// one is attached. Cached payloads are stored decompressed and verified.
// The second result is an ownership token: non-nil means the payload's
// backing memory belongs exclusively to the caller — it may be returned
// to the user without a defensive copy, and if the payload provably does
// not escape the probe, passing the token to putBlockBuf recycles the
// buffer. A nil token means the payload is shared with the block cache
// and must be copied before it escapes to anyone who could modify it.
func (rd *Reader) readBlock(h blockHandle) ([]byte, *[]byte, error) {
	var key cache.Key
	if rd.blocks != nil {
		key = cache.Key{Table: rd.id, Offset: h.offset}
		if payload, ok := rd.blocks.Get(key); ok {
			return payload, nil, nil
		}
	}
	// A cache-fill read allocates exactly: its payload transfers to the
	// cache (so a pooled buffer would never return to the pool), and the
	// LRU accounts len(value) — a payload aliasing an oversized recycled
	// array would pin memory the cache budget never sees. The pool serves
	// the cacheless reads, whose buffers provably come back on misses.
	var bp *[]byte
	var buf []byte
	if rd.blocks == nil {
		bp = getBlockBuf(int(h.length) + 4)
		buf = *bp
	} else {
		buf = make([]byte, h.length+4)
	}
	recycle := func() {
		if bp != nil {
			putBlockBuf(bp)
		}
	}
	if _, err := rd.r.ReadAt(buf, int64(h.offset)); err != nil {
		recycle()
		return nil, nil, fmt.Errorf("sstable: read block at %d: %w", h.offset, err)
	}
	payload, err := decodeDataBlock(buf, rd.version)
	if err != nil {
		recycle()
		return nil, nil, err
	}
	if rd.blocks != nil {
		// Ownership transfers to the cache: shared from here on.
		rd.blocks.Put(key, payload)
		return payload, nil, nil
	}
	// A raw-codec payload aliases the pooled buffer; a compressed (or
	// empty) payload is a fresh allocation, so its frame buffer recycles
	// immediately and the payload itself becomes the pooled token.
	aliases := len(payload) > 0 && len(payload) <= len(buf)-4 &&
		&payload[0] == &buf[len(buf)-4-len(payload)]
	if !aliases {
		recycle()
		bp = &payload
	}
	return payload, bp, nil
}

// parseHandles decodes a run of block handles (a version-1/2 flat index
// or one version-3 index chunk), validating every referenced block
// against the file size.
func (rd *Reader) parseHandles(payload []byte) ([]blockHandle, error) {
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return nil, ErrCorrupt
	}
	payload = payload[n:]
	handles := make([]blockHandle, 0, count)
	for i := uint64(0); i < count; i++ {
		klen, n := binary.Uvarint(payload)
		if n <= 0 || uint64(len(payload[n:])) < klen {
			return nil, ErrCorrupt
		}
		payload = payload[n:]
		key := payload[:klen:klen]
		payload = payload[klen:]
		off, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, ErrCorrupt
		}
		payload = payload[n:]
		length, n := binary.Uvarint(payload)
		if n <= 0 {
			return nil, ErrCorrupt
		}
		payload = payload[n:]
		// Like the footer regions: a block must lie within the file (its
		// frame is length+4 bytes with the crc), or reads would allocate
		// and read garbage-sized buffers. Ordered to avoid overflow.
		if length > uint64(rd.size) || length+4 > uint64(rd.size) || off > uint64(rd.size)-(length+4) {
			return nil, ErrCorrupt
		}
		handles = append(handles, blockHandle{firstKey: key, offset: off, length: length})
	}
	return handles, nil
}

func (rd *Reader) loadIndex() error {
	payload, err := rd.readChecksummed(rd.f.indexOff, rd.f.indexLen)
	if err != nil {
		return err
	}
	if rd.version < FormatV3 {
		rd.index, err = rd.parseHandles(payload)
		return err
	}
	// Version 3: only the top-level chunk index materializes at open;
	// each chunk's handles parse lazily in chunkHandles.
	count, n := binary.Uvarint(payload)
	if n <= 0 {
		return ErrCorrupt
	}
	payload = payload[n:]
	rd.chunks = make([]chunkHandle, 0, count)
	for i := uint64(0); i < count; i++ {
		klen, n := binary.Uvarint(payload)
		if n <= 0 || uint64(len(payload[n:])) < klen {
			return ErrCorrupt
		}
		payload = payload[n:]
		key := payload[:klen:klen]
		payload = payload[klen:]
		off, n := binary.Uvarint(payload)
		if n <= 0 {
			return ErrCorrupt
		}
		payload = payload[n:]
		length, n := binary.Uvarint(payload)
		if n <= 0 {
			return ErrCorrupt
		}
		payload = payload[n:]
		// A chunk frame needs at least its count varint and crc, and must
		// lie within the file.
		if length < 5 || length > uint64(rd.size) || off > uint64(rd.size)-length {
			return ErrCorrupt
		}
		rd.chunks = append(rd.chunks, chunkHandle{firstKey: key, offset: off, length: length})
	}
	rd.chunkData = make([]atomic.Pointer[[]blockHandle], len(rd.chunks))
	return nil
}

// chunkHandles returns the block handles of chunk ci, parsing and caching
// them on first use. For version-1/2 tables the flat index is the single
// chunk. Concurrent first uses may both parse; the store is idempotent.
func (rd *Reader) chunkHandles(ci int) ([]blockHandle, error) {
	if rd.version < FormatV3 {
		return rd.index, nil
	}
	if p := rd.chunkData[ci].Load(); p != nil {
		return *p, nil
	}
	c := rd.chunks[ci]
	payload, err := rd.readChecksummed(c.offset, c.length)
	if err != nil {
		return nil, err
	}
	handles, err := rd.parseHandles(payload)
	if err != nil {
		return nil, err
	}
	rd.chunkData[ci].Store(&handles)
	return handles, nil
}

// numChunks reports how many index chunks the table has (1 for the flat
// legacy index).
func (rd *Reader) numChunks() int {
	if rd.version < FormatV3 {
		return 1
	}
	return len(rd.chunks)
}

func (rd *Reader) loadBloom() error {
	payload, err := rd.readChecksummed(rd.f.bloomOff, rd.f.bloomLen)
	if err != nil {
		return err
	}
	filter, err := bloom.Unmarshal(payload)
	if err != nil {
		return fmt.Errorf("sstable: %w", err)
	}
	rd.filter = filter
	return nil
}

// loadBounds populates the table's key/sequence bounds: from the bounds
// block on version-2+ tables; on version-1 tables from a valid persisted
// hint (the engine manifest's copy, sparing the backfill read) or else
// backfilled from the data (smallest key from the block index, largest
// key by scanning the final block; the sequence range is unknowable
// without a full scan and degrades to [0, MaxUint64], which disables
// seq-based early exit but never correctness).
func (rd *Reader) loadBounds(hint *Bounds) error {
	if rd.version >= FormatV2 {
		payload, err := rd.readChecksummed(rd.f.boundsOff, rd.f.boundsLen)
		if err != nil {
			return err
		}
		b, tail, err := unmarshalBoundsTail(payload)
		if err != nil {
			return err
		}
		if rd.f.entryCount > 0 {
			if b.Smallest == nil || b.Largest == nil ||
				bytes.Compare(b.Smallest, b.Largest) > 0 || b.MinSeq > b.MaxSeq {
				return ErrCorrupt
			}
		}
		rd.bounds = b
		if rd.sketch, err = decodeBoundsSketch(tail); err != nil {
			return err
		}
		return nil
	}
	if len(rd.index) == 0 || rd.f.entryCount == 0 {
		return nil
	}
	if hint != nil && hint.Smallest != nil && hint.Largest != nil &&
		bytes.Compare(hint.Smallest, hint.Largest) <= 0 && hint.MinSeq <= hint.MaxSeq {
		rd.bounds = Bounds{
			Smallest: append([]byte(nil), hint.Smallest...),
			Largest:  append([]byte(nil), hint.Largest...),
			MinSeq:   hint.MinSeq,
			MaxSeq:   hint.MaxSeq,
		}
		return nil
	}
	smallest := append([]byte(nil), rd.index[0].firstKey...)
	payload, tok, err := rd.readBlock(rd.index[len(rd.index)-1])
	if err != nil {
		return err
	}
	var largest []byte
	for len(payload) > 0 {
		e, rest, err := decodeEntry(payload)
		if err != nil {
			return err
		}
		largest = e.Key
		payload = rest
	}
	largest = append([]byte(nil), largest...)
	if tok != nil {
		putBlockBuf(tok)
	}
	if largest == nil || bytes.Compare(smallest, largest) > 0 {
		return ErrCorrupt
	}
	rd.bounds = Bounds{
		Smallest: smallest,
		Largest:  largest,
		MinSeq:   0,
		MaxSeq:   ^uint64(0),
	}
	return nil
}

// Bounds returns the table's key and sequence range. The second result is
// false for an empty table, whose bounds are meaningless.
func (rd *Reader) Bounds() (Bounds, bool) {
	return rd.bounds, rd.f.entryCount > 0
}

// Sketch returns the table's persisted HyperLogLog key sketch, or nil for
// tables written before the bounds-tail extension (and all version-1/2
// tables, which may instead carry a manifest-persisted sketch upstream).
// Callers must not mutate the returned sketch; Clone before merging into
// it.
func (rd *Reader) Sketch() *hll.Sketch { return rd.sketch }

// FooterVersion reports the on-disk footer version the table was opened
// with: 3 for current tables (restart-point blocks, partitioned index),
// 2 for legacy flat-index tables carrying a bounds block, 1 for legacy
// tables whose bounds were backfilled at open.
func (rd *Reader) FooterVersion() int { return rd.version }

// EntryCount returns the number of entries in the table.
func (rd *Reader) EntryCount() uint64 { return rd.f.entryCount }

// KeyBytes returns the total bytes of keys stored.
func (rd *Reader) KeyBytes() uint64 { return rd.f.keyBytes }

// ValBytes returns the total bytes of values stored.
func (rd *Reader) ValBytes() uint64 { return rd.f.valBytes }

// FileSize returns the total size of the encoded table in bytes: the
// quantity compaction counts as disk I/O when the table is read or written.
func (rd *Reader) FileSize() uint64 { return uint64(rd.size) }

// searchHandles returns the index of the last handle whose firstKey is
// <= key, or -1 when key precedes every handle.
func searchHandles(handles []blockHandle, key []byte) int {
	return sort.Search(len(handles), func(i int) bool {
		return bytes.Compare(handles[i].firstKey, key) > 0
	}) - 1
}

// findBlockForKey locates the data block that could contain key: one
// binary search over the flat index on legacy tables, or a top-level
// chunk search plus an in-chunk search on version-3 tables.
func (rd *Reader) findBlockForKey(key []byte) (blockHandle, bool, error) {
	var zero blockHandle
	if rd.version < FormatV3 {
		bi := searchHandles(rd.index, key)
		if bi < 0 {
			return zero, false, nil
		}
		return rd.index[bi], true, nil
	}
	ci := sort.Search(len(rd.chunks), func(i int) bool {
		return bytes.Compare(rd.chunks[i].firstKey, key) > 0
	}) - 1
	if ci < 0 {
		return zero, false, nil
	}
	handles, err := rd.chunkHandles(ci)
	if err != nil {
		return zero, false, err
	}
	bi := searchHandles(handles, key)
	if bi < 0 {
		return zero, false, nil
	}
	return handles[bi], true, nil
}

// Get returns the entry for key, or ErrNotFound. The Bloom filter rejects
// most absent keys without touching data blocks.
func (rd *Reader) Get(key []byte) (iterator.Entry, error) {
	e, _, err := rd.GetEntry(key)
	return e, err
}

// GetEntry is Get with an ownership report: owned is true when the
// returned entry's key and value alias memory owned exclusively by the
// caller (the block was read outside the cache), so the engine may hand
// the value to its user without a defensive copy. When owned is false the
// entry aliases a cache-shared block and must be copied before it escapes.
func (rd *Reader) GetEntry(key []byte) (iterator.Entry, bool, error) {
	var zero iterator.Entry
	if !rd.filter.MayContain(key) {
		if rd.fm != nil {
			rd.fm.Negatives.Add(1)
		}
		return zero, false, ErrNotFound
	}
	e, owned, err := rd.getPastFilter(key)
	if err == ErrNotFound && rd.fm != nil {
		rd.fm.FalsePositives.Add(1)
	}
	return e, owned, err
}

// copyEntryOut materializes an entry into one compact allocation so the
// (much larger) block buffer it aliases can be recycled immediately
// instead of escaping with the entry and starving the buffer pool.
func copyEntryOut(e iterator.Entry) iterator.Entry {
	kv := make([]byte, len(e.Key)+len(e.Value))
	copy(kv, e.Key)
	copy(kv[len(e.Key):], e.Value)
	out := e
	out.Key = kv[:len(e.Key):len(e.Key)]
	if e.Value != nil {
		out.Value = kv[len(e.Key):]
	}
	return out
}

// getPastFilter is the block-probing half of Get, after the Bloom filter
// has said "maybe". An exclusively owned block buffer is recycled on every
// outcome: a miss recycles it directly (nothing escapes), and a hit copies
// the entry — a few dozen bytes — out of the block first. Returning block
// buffers on hits is what keeps the pool fed on a read-heavy cacheless
// workload; before that, every successful Get leaked its buffer to the
// garbage collector and the pool stayed empty. On version-3 tables the
// in-block probe binary-searches the restart array instead of scanning
// the block linearly.
func (rd *Reader) getPastFilter(key []byte) (iterator.Entry, bool, error) {
	var zero iterator.Entry
	h, ok, err := rd.findBlockForKey(key)
	if err != nil {
		return zero, false, err
	}
	if !ok {
		return zero, false, ErrNotFound
	}
	payload, tok, err := rd.readBlock(h)
	if err != nil {
		return zero, false, err
	}
	miss := func() (iterator.Entry, bool, error) {
		if tok != nil {
			putBlockBuf(tok)
		}
		return zero, false, ErrNotFound
	}
	hit := func(e iterator.Entry) (iterator.Entry, bool, error) {
		if tok == nil {
			return e, false, nil
		}
		e = copyEntryOut(e)
		putBlockBuf(tok)
		return e, true, nil
	}
	if rd.version >= FormatV3 {
		pb, err := parseV3Block(payload)
		if err != nil {
			return zero, false, err
		}
		var hd v3EntryHeader
		err = searchV3Block(pb, key, &hd)
		if err == ErrNotFound {
			return miss()
		}
		if err != nil {
			return zero, false, err
		}
		// A hit's key is byte-identical to the probe key; materialize the
		// entry without ever reconstructing it from the prefix encoding.
		if tok != nil {
			kv := make([]byte, len(key)+len(hd.value))
			copy(kv, key)
			copy(kv[len(key):], hd.value)
			e := iterator.Entry{Key: kv[:len(key):len(key)], Seq: hd.seq, Tombstone: hd.tombstone}
			if hd.value != nil {
				e.Value = kv[len(key):]
			}
			putBlockBuf(tok)
			return e, true, nil
		}
		return iterator.Entry{
			Key:   append([]byte(nil), key...),
			Value: hd.value, Seq: hd.seq, Tombstone: hd.tombstone,
		}, false, nil
	}
	for len(payload) > 0 {
		e, rest, err := decodeEntry(payload)
		if err != nil {
			return zero, false, err
		}
		switch bytes.Compare(e.Key, key) {
		case 0:
			return hit(e)
		case 1:
			return miss()
		}
		payload = rest
	}
	return miss()
}

// Iter returns an iterator over the whole table in key order.
func (rd *Reader) Iter() *Iter {
	return &Iter{rd: rd}
}

// IterFrom returns an iterator positioned at the first entry with
// key >= start.
func (rd *Reader) IterFrom(start []byte) *Iter {
	it := &Iter{rd: rd}
	it.SeekGE(start)
	return it
}

// Iter iterates over a Reader's entries block by block, chunk by chunk.
type Iter struct {
	rd      *Reader
	handles []blockHandle // block handles of the chunk being iterated
	ci      int           // next chunk to load (handles == nil) or current+1
	bi      int           // next block to load within handles
	block   []byte        // remaining legacy-format block bytes
	v3      *v3BlockIter  // current version-3 block
	arena   keyArena      // carried from one version-3 block to the next
	cur     iterator.Entry
	valid   bool
	err     error
}

// Err returns the first error encountered while iterating, if any; an
// iterator that hit an error reports Valid() == false.
func (it *Iter) Err() error { return it.err }

// Valid implements iterator.Iterator.
func (it *Iter) Valid() bool {
	if !it.valid && it.err == nil {
		it.advance()
	}
	return it.valid
}

// Entry implements iterator.Iterator.
func (it *Iter) Entry() iterator.Entry { return it.cur }

// Next implements iterator.Iterator.
func (it *Iter) Next() {
	it.valid = false
	it.advance()
}

// SeekGE repositions the iterator at the first entry with key >= target,
// using the chunk and block indexes to skip earlier blocks.
func (it *Iter) SeekGE(target []byte) {
	if it.err != nil {
		return
	}
	if it.rd.numChunks() == 0 {
		it.valid = false
		return
	}
	ci := 0
	if it.rd.version >= FormatV3 {
		ci = sort.Search(len(it.rd.chunks), func(i int) bool {
			return bytes.Compare(it.rd.chunks[i].firstKey, target) > 0
		}) - 1
		if ci < 0 {
			ci = 0
		}
	}
	handles, err := it.rd.chunkHandles(ci)
	if err != nil {
		it.err = err
		return
	}
	bi := searchHandles(handles, target)
	if bi < 0 {
		bi = 0
	}
	it.handles = handles
	it.ci = ci + 1
	it.bi = bi
	it.block = nil
	it.v3 = nil
	it.valid = false
	it.advance()
	for it.valid && bytes.Compare(it.cur.Key, target) < 0 {
		it.valid = false
		it.advance()
	}
}

// nextBlock loads the next data block, crossing into the next index chunk
// as needed; it reports false at the end of the table or on error.
func (it *Iter) nextBlock() bool {
	for it.handles == nil || it.bi >= len(it.handles) {
		if it.ci >= it.rd.numChunks() {
			return false
		}
		handles, err := it.rd.chunkHandles(it.ci)
		if err != nil {
			it.err = err
			return false
		}
		it.handles = handles
		it.ci++
		it.bi = 0
	}
	h := it.handles[it.bi]
	it.bi++
	// Iterators never recycle owned blocks: entries alias the block
	// until the caller moves past them, so ownership just falls to the
	// garbage collector.
	payload, _, err := it.rd.readBlock(h)
	if err != nil {
		it.err = err
		return false
	}
	if it.rd.version >= FormatV3 {
		v3, err := newV3BlockIter(payload)
		if err != nil {
			it.err = err
			return false
		}
		v3.arena = it.arena
		it.v3 = v3
	} else {
		it.block = payload
	}
	return true
}

func (it *Iter) advance() {
	if it.err != nil {
		return
	}
	for {
		if it.rd.version >= FormatV3 {
			if it.v3 != nil {
				ok, err := it.v3.next(&it.cur)
				if err != nil {
					it.err = err
					return
				}
				if ok {
					it.valid = true
					return
				}
				it.arena, it.v3 = it.v3.arena, nil
			}
		} else if len(it.block) > 0 {
			e, rest, err := decodeEntry(it.block)
			if err != nil {
				it.err = err
				return
			}
			it.block = rest
			it.cur = e
			it.valid = true
			return
		}
		if !it.nextBlock() {
			return
		}
	}
}
