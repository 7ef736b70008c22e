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
	"repro/internal/keyhash"
	"repro/internal/vfs"
)

// tableIDs hands each table a unique ID for block-cache keying: a Writer
// takes one before its first block, a Reader opened from a file at open.
var tableIDs atomic.Uint64

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

// Cache is the block-cache surface a Reader uses: satisfied by the single
// cache.LRU, the mutex-striped cache.Sharded and cache.Uncached, which
// readers without a cache get. The cache owns block memory (see package
// cache): Get returns a pinned block the caller must Release and must not
// modify; a miss is filled into the Buf of a block from Alloc — a recycled
// array when the key's stripe has one that fits — and published with Add,
// after which the filler still holds its pin. A pin that is never released
// costs only the reuse of that one array, which the garbage collector
// reclaims instead. The cache's byte budget counts payload bytes of
// resident blocks; arrays pinned past their eviction and the free lists (a
// few arrays per stripe) sit outside it. Keys are (table ID, file offset)
// pairs; a table's data blocks and index chunks occupy disjoint offsets in
// the same file, so the one key space covers both without collision.
//
// Blocks also arrive from the other side: a Writer given a cache
// (PublishTo) Publishes a copy of every data block's decoded body under its
// own table ID as it writes it, byte for byte what readBlock would cache for
// the same handle, and the Reader it hands over (Writer.Reader) looks them
// up under that ID; one merged from input that was not resident is
// published cold, admitted only where it displaces nothing live.
// Maintenance readers (merge inputs — Reader.ScanIter — and a merge's purge
// probe, Reader.HoldsNewer) look blocks up with Peek, which
// neither promotes nor counts, and read what is missing into buffers of
// cache.Uncached; a merge, and only a merge, Demotes each resident block as
// it takes it up, so its dead input is evicted before anything live, and a
// merge that does not commit Unspends its inputs again.
type Cache interface {
	Get(k cache.Key) (*cache.Block, bool)
	Peek(k cache.Key) (*cache.Block, bool)
	Demote(b *cache.Block)
	Unspend(table uint64)
	Alloc(k cache.Key, n int) *cache.Block
	Add(b *cache.Block, payload []byte)
	Publish(k cache.Key, data []byte, cold bool)
	DropTable(table uint64)
}

// Reader serves point lookups and ordered scans from a finished sstable.
// It is safe for concurrent use: all methods read through an io.ReaderAt.
type Reader struct {
	id     uint64
	r      io.ReaderAt
	size   int64
	f      footer
	bounds Bounds
	// chunks is the top-level index; chunkData caches each chunk's parsed
	// handles, loaded lazily the first time a lookup or scan lands in the
	// chunk (open materializes only the top level; a Writer's Reader is
	// born with every chunk's handles).
	chunks    []blockHandle
	chunkData []atomic.Pointer[[]blockHandle]
	filter    *bloom.Filter
	sketch    *hll.Sketch // key sketch from the bounds tail
	closer    io.Closer   // non-nil when the Reader owns the underlying file
	blocks    Cache
	fm        *FilterMetrics
}

// NewReader opens a table stored in r, whose total length is size bytes.
func NewReader(r io.ReaderAt, size int64) (*Reader, error) {
	if size < footerSize {
		return nil, ErrCorrupt
	}
	buf := make([]byte, footerSize)
	if _, err := r.ReadAt(buf, size-footerSize); err != nil {
		return nil, fmt.Errorf("sstable: read footer: %w", err)
	}
	f, err := unmarshalFooter(buf)
	if err != nil {
		return nil, err
	}
	// Validate every footer-referenced region against the file size before
	// any allocation: a corrupt length must fail with ErrCorrupt, not
	// attempt a multi-gigabyte buffer.
	inFile := func(off, length uint64) bool {
		return length <= uint64(size) && off <= uint64(size)-length
	}
	if !inFile(f.indexOff, f.indexLen) || !inFile(f.bloomOff, f.bloomLen) || !inFile(f.boundsOff, f.boundsLen) {
		return nil, ErrCorrupt
	}
	rd := &Reader{id: tableIDs.Add(1), r: r, size: size, f: f, blocks: cache.Uncached}
	if err := rd.loadIndex(); err != nil {
		return nil, err
	}
	if err := rd.loadBloom(); err != nil {
		return nil, err
	}
	if err := rd.loadBounds(); err != nil {
		return nil, err
	}
	return rd, nil
}

// Open opens an sstable file by path; Close releases the file handle.
func Open(path string) (*Reader, error) {
	return OpenFS(vfs.Default, path, nil)
}

// OpenFS is Open reading through fsys, so tests can serve table reads from a
// fault-injecting filesystem. hint is unused: a table's bounds are always
// read from the table.
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
	rd, err := NewReader(file, st.Size())
	if err != nil {
		file.Close()
		return nil, fmt.Errorf("sstable: open %s: %w", path, err)
	}
	rd.closer = file
	return rd, nil
}

// SetBlockCache attaches a shared cache used for data-block reads. Call
// before serving reads; passing nil disables caching.
func (rd *Reader) SetBlockCache(c Cache) {
	if c == nil {
		c = cache.Uncached
	}
	rd.blocks = c
}

// SetFilterMetrics attaches a store-shared Bloom-filter counter set that
// Get updates; passing nil disables counting.
func (rd *Reader) SetFilterMetrics(m *FilterMetrics) { rd.fm = m }

// Unspend takes back every block of the table a merge has spent (see
// MergeTo): for the inputs of a merge that will not commit, which stay live.
func (rd *Reader) Unspend() { rd.blocks.Unspend(rd.id) }

// Close releases the underlying file when the Reader owns it — opened by
// Open, or handed over by a Writer with a file it can close — and in any case
// detaches the table's cached blocks.
func (rd *Reader) Close() error {
	rd.blocks.DropTable(rd.id)
	if rd.closer != nil {
		return rd.closer.Close()
	}
	return nil
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

// readBlock returns the data block at h, pinned: from the block cache, or
// read into a buffer the cache recycles, verified, and published there.
// The caller reads the payload through Data and must Release the block on
// every path; everything aliasing the payload dies with the pin.
func (rd *Reader) readBlock(h blockHandle) (*cache.Block, error) {
	key := cache.Key{Table: rd.id, Offset: h.offset}
	if b, ok := rd.blocks.Get(key); ok {
		return b, nil
	}
	return rd.loadBlock(rd.blocks, key, h)
}

// loadBlock reads the data block at h from the file into a buffer of c,
// verifies it and adds it to c, returning it pinned.
func (rd *Reader) loadBlock(c Cache, key cache.Key, h blockHandle) (*cache.Block, error) {
	b := c.Alloc(key, int(h.length)+4)
	if _, err := rd.r.ReadAt(b.Buf(), int64(h.offset)); err != nil {
		b.Release()
		return nil, fmt.Errorf("sstable: read block at %d: %w", h.offset, err)
	}
	payload, err := decodeDataBlock(b.Buf())
	if err != nil {
		b.Release()
		return nil, err
	}
	c.Add(b, payload)
	return b, nil
}

// parseHandles decodes a list of handles: the block handles of one index
// chunk, whose frames are length+crc bytes with crc 4, or the top index's
// chunk handles, whose lengths include the crc (crc 0). Like the footer
// regions, every frame must hold a byte beyond its crc and lie within the
// file, or reads would allocate and read garbage-sized buffers.
func (rd *Reader) parseHandles(payload []byte, crc uint64) ([]blockHandle, error) {
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
		// Ordered to avoid overflow.
		size := uint64(rd.size)
		if length > size || length+crc > size || length+crc < 5 || off > size-(length+crc) {
			return nil, ErrCorrupt
		}
		handles = append(handles, blockHandle{key: key, offset: off, length: length})
	}
	return handles, nil
}

func (rd *Reader) loadIndex() error {
	payload, err := rd.readChecksummed(rd.f.indexOff, rd.f.indexLen)
	if err != nil {
		return err
	}
	// Only the top-level chunk index materializes at open; each chunk's
	// handles parse lazily in chunkHandles.
	if rd.chunks, err = rd.parseHandles(payload, 0); err != nil {
		return err
	}
	rd.chunkData = make([]atomic.Pointer[[]blockHandle], len(rd.chunks))
	return nil
}

// chunkHandles returns the block handles of chunk ci, parsing and caching
// them on first use. Concurrent first uses may both parse; the store is
// idempotent.
func (rd *Reader) chunkHandles(ci int) ([]blockHandle, error) {
	if p := rd.chunkData[ci].Load(); p != nil {
		return *p, nil
	}
	c := rd.chunks[ci]
	payload, err := rd.readChecksummed(c.offset, c.length)
	if err != nil {
		return nil, err
	}
	handles, err := rd.parseHandles(payload, 4)
	if err != nil {
		return nil, err
	}
	rd.chunkData[ci].Store(&handles)
	return handles, nil
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

// loadBounds reads the table's key and sequence bounds and its key sketch
// from the bounds block.
func (rd *Reader) loadBounds() error {
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
	rd.sketch, err = decodeBoundsSketch(tail)
	return err
}

// Bounds returns the table's key and sequence range. The second result is
// false for an empty table, whose bounds are meaningless.
func (rd *Reader) Bounds() (Bounds, bool) {
	return rd.bounds, rd.f.entryCount > 0
}

// Sketch returns the table's persisted HyperLogLog key sketch. Callers must
// not mutate it; Clone before merging into it.
func (rd *Reader) Sketch() *hll.Sketch { return rd.sketch }

// EntryCount returns the number of entries in the table.
func (rd *Reader) EntryCount() uint64 { return rd.f.entryCount }

// FileSize returns the total size of the encoded table in bytes: the
// quantity compaction counts as disk I/O when the table is read or written.
func (rd *Reader) FileSize() uint64 { return uint64(rd.size) }

// searchHandles returns the index of the last handle whose index key is
// <= key, or -1 when key precedes every handle.
func searchHandles(handles []blockHandle, key []byte) int {
	return sort.Search(len(handles), func(i int) bool {
		return bytes.Compare(handles[i].key, key) > 0
	}) - 1
}

// findBlockForKey locates the data block that could contain key: a
// top-level chunk search plus an in-chunk search.
func (rd *Reader) findBlockForKey(key []byte) (blockHandle, bool, error) {
	var zero blockHandle
	ci := searchHandles(rd.chunks, key)
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

// MayContainHash reports whether the table's Bloom filter lets through the
// key h is keyhash.Of of: false means the table does not hold the key. It
// counts nothing in the FilterMetrics.
func (rd *Reader) MayContainHash(h keyhash.Hash) bool { return rd.filter.MayContainHash(h) }

// HoldsNewer reports whether the table holds key (h is keyhash.Of(key)) at a
// sequence number above seq: the purge test of a merge (see MergeTo), whose
// answer is a function of the table alone, whatever the cache holds. The
// bounds and the Bloom filter answer most keys; past them the key's block is
// fetched as a ScanIter fetches it (see fetchSpan) — used where it lies if
// resident, else read into a buffer that is never published — so no block
// is promoted and no counter moves, the filter metrics included. A read or
// checksum error proves nothing: the answer is false, and the merge keeps
// the version, which is always correct.
func (rd *Reader) HoldsNewer(key []byte, h keyhash.Hash, seq uint64) bool {
	b := &rd.bounds
	if rd.f.entryCount == 0 || b.MaxSeq <= seq ||
		bytes.Compare(key, b.Smallest) < 0 || bytes.Compare(key, b.Largest) > 0 ||
		!rd.MayContainHash(h) {
		return false
	}
	bh, ok, err := rd.findBlockForKey(key)
	if err != nil || !ok {
		return false
	}
	var sp span
	if rd.fetchSpan([]blockHandle{bh}, &sp); sp.n == 0 {
		return false
	}
	var hd v3EntryHeader
	pb, err := parseV3Block(sp.blocks[0].data)
	found := err == nil && searchV3Block(pb, key, &hd) == nil
	sp.release(0)
	return found && hd.seq > seq
}

// Get returns the entry for key, or ErrNotFound. The Bloom filter rejects
// most absent keys without touching data blocks. The entry's value is the
// caller's own copy; its key is the probe key.
func (rd *Reader) Get(key []byte) (iterator.Entry, error) {
	e, b, err := rd.GetEntry(key)
	if err != nil {
		return e, err
	}
	e.Value = append(e.Value[:0:0], e.Value...)
	b.Release()
	return e, nil
}

// GetEntry is Get without the copy: on a hit the entry's value aliases the
// returned block, which is pinned on the caller's behalf — copy out what
// must outlive it, then Release. The entry's key is the probe key itself.
// On a miss or an error the block is nil.
func (rd *Reader) GetEntry(key []byte) (iterator.Entry, *cache.Block, error) {
	return rd.GetEntryHashed(key, keyhash.Of(key))
}

// GetEntryHashed is GetEntry for a caller that has already hashed key (h
// must be keyhash.Of(key)): a lookup across several tables hashes once.
func (rd *Reader) GetEntryHashed(key []byte, h keyhash.Hash) (iterator.Entry, *cache.Block, error) {
	if !rd.filter.MayContainHash(h) {
		if rd.fm != nil {
			rd.fm.Negatives.Add(1)
		}
		return iterator.Entry{}, nil, ErrNotFound
	}
	e, b, err := rd.getPastFilter(key)
	if err == ErrNotFound && rd.fm != nil {
		rd.fm.FalsePositives.Add(1)
	}
	return e, b, err
}

// getPastFilter is the block-probing half of GetEntry, after the Bloom
// filter has said "maybe": it pins the one block that could hold key and
// keeps the pin only on a hit.
func (rd *Reader) getPastFilter(key []byte) (iterator.Entry, *cache.Block, error) {
	var zero iterator.Entry
	h, ok, err := rd.findBlockForKey(key)
	if err != nil {
		return zero, nil, err
	}
	if !ok {
		return zero, nil, ErrNotFound
	}
	b, err := rd.readBlock(h)
	if err != nil {
		return zero, nil, err
	}
	// The probe binary-searches the restart array and never rebuilds a key
	// from its prefix encoding: a hit's key is the probe key, its value
	// aliases the block.
	pb, err := parseV3Block(b.Data())
	var hd v3EntryHeader
	if err == nil {
		err = searchV3Block(pb, key, &hd)
	}
	if err != nil {
		b.Release()
		return zero, nil, err
	}
	return iterator.Entry{Key: key, Value: hd.value, Seq: hd.seq, Tombstone: hd.tombstone}, b, nil
}

// iters is the free list Close returns iterators to, key arenas and all.
var iters = sync.Pool{New: func() any { return new(Iter) }}

func (rd *Reader) newIter(nofill bool) *Iter {
	it := iters.Get().(*Iter)
	it.rd, it.nofill = rd, nofill
	return it
}

// Iter returns an iterator over the whole table in key order.
func (rd *Reader) Iter() *Iter { return rd.newIter(false) }

// ScanIter is Iter for maintenance that reads a whole table once and must
// not let that show in the cache — the inputs of a compaction merge:
// resident blocks are used where they lie, the rest pass through private
// buffers, and the cache's contents, recency order and hit/miss counters
// are the same afterwards as before (MergeTo alone goes one step further
// and spends the resident blocks it consumes). Its blocks are
// fetched — looked up or read, and verified — a span of spanBlocks at a time,
// on the goroutine that iterates, when its entries reach the next span.
func (rd *Reader) ScanIter() *Iter { return rd.newIter(true) }

// IterFrom returns an iterator positioned at the first entry with
// key >= start; a nil start is Iter.
func (rd *Reader) IterFrom(start []byte) *Iter {
	it := rd.newIter(false)
	if start != nil {
		it.SeekGE(start)
	}
	return it
}

// Iter iterates over a Reader's entries block by block, chunk by chunk.
//
// Entries alias pinned block memory and the key arena of their block. The
// iterator pins the block it is reading and the one before it, and keeps
// the rebuilt keys of each of the two in an arena of its own, so an Entry
// stays valid until the second following Next (or SeekGE) on its iterator:
// one Next may cross into the next block, and the block left behind is
// still held. That is what the combinators need — iterator.Dedup and
// iterator.Merging read an entry after advancing its source once, never
// twice, because a table holds one version per key — and it keeps a scan at
// two pinned blocks and two arenas per table whatever its length: entering
// a block releases the pin and empties the arena of the block two back.
// Close releases both pins and recycles the iterator, arenas included, for
// the next Iter, IterFrom or ScanIter: every entry dies there, and the
// iterator must not be touched again, Err included. One never closed is
// left to the garbage collector.
type Iter struct {
	rd *Reader
	cursor
	v3   v3BlockIter  // current block and the key arenas
	blk  *cache.Block // pin on the block being read
	prev *cache.Block // pin on the block before it
	// nofill marks a ScanIter. For one, cold says the block being read was
	// not resident, and sawCold that an entry has been consumed from such a
	// block since a merge's Writer last asked (Writer.inputsResident); spend,
	// set by MergeTo, makes it demote each block it enters.
	nofill, cold, sawCold, spend bool
	scan                         *scanState // a started ScanIter's span

	cur   iterator.Entry
	valid bool
	err   error
}

// Err returns the first error encountered while iterating, if any; an
// iterator that hit an error reports Valid() == false.
func (it *Iter) Err() error { return it.err }

// Close releases the iterator's block pins, empties its key arenas and
// recycles it; a second Close before anything reuses it does nothing.
func (it *Iter) Close() {
	if it.rd == nil {
		return
	}
	it.stopAhead()
	for _, b := range [...]*cache.Block{it.blk, it.prev} {
		if b != nil {
			b.Release()
		}
	}
	for i := range it.v3.arenas {
		it.v3.arenas[i].empty()
	}
	*it = Iter{v3: v3BlockIter{arenas: it.v3.arenas}}
	iters.Put(it)
}

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
	it.sawCold = it.sawCold || it.cold
	it.valid = false
	it.advance()
}

// SeekGE repositions the iterator at the first entry with key >= target,
// using the chunk and block indexes to skip earlier blocks.
func (it *Iter) SeekGE(target []byte) {
	if it.err != nil {
		return
	}
	if len(it.rd.chunks) == 0 {
		it.valid = false
		return
	}
	ci := max(0, searchHandles(it.rd.chunks, target))
	handles, err := it.rd.chunkHandles(ci)
	if err != nil {
		it.err = err
		return
	}
	bi := searchHandles(handles, target)
	if bi < 0 {
		bi = 0
	}
	it.stopAhead()
	it.cursor = cursor{handles: handles, ci: ci + 1, bi: bi}
	it.v3.leave()
	it.valid = false
	it.advance()
	for it.valid && bytes.Compare(it.cur.Key, target) < 0 {
		it.valid = false
		it.advance()
	}
}

// spanBlocks is how many consecutive blocks a ScanIter fetches at a time,
// the ones that are not resident in runs of one ReadAt each: 32 KiB of
// default-size blocks a span, so a merge input costs a read call per 32 KiB.
const spanBlocks = 32 << 10 / BlockSize

// fetched is one block a ScanIter has ready: its payload, the pin that
// keeps the payload valid — the resident block's, or one reference on the
// buffer its run was read into — and whether it had to be read.
type fetched struct {
	pin  *cache.Block
	data []byte
	cold bool
}

// span is up to spanBlocks fetched blocks in table order and, if fetching
// stopped early, the error that belongs after the last of them.
type span struct {
	blocks [spanBlocks]fetched
	n      int
	err    error
}

// release drops the pins of the blocks from i on.
func (sp *span) release(i int) {
	for ; i < sp.n; i++ {
		sp.blocks[i].pin.Release()
	}
	sp.n = 0
}

// fetchSpan fills sp with the blocks at handles (at most spanBlocks of
// them), leaving the cache as it found it: a resident block is used where it
// lies, without promoting it or counting a hit, and each run of blocks in
// between is read, with one ReadAt when they are adjacent in the file, into
// a recycled buffer of cache.Uncached that is never published.
func (rd *Reader) fetchSpan(handles []blockHandle, sp *span) {
	sp.n, sp.err = 0, nil
	resident := func(h blockHandle) (*cache.Block, bool) {
		return rd.blocks.Peek(cache.Key{Table: rd.id, Offset: h.offset})
	}
	for i := 0; i < len(handles) && sp.err == nil; {
		if b, ok := resident(handles[i]); ok {
			sp.blocks[sp.n] = fetched{pin: b, data: b.Data()}
			sp.n++
			i++
			continue
		}
		// The run extends while the next block starts where this one's frame
		// (payload and checksum) ends and is not resident either.
		end := i + 1
		for ; end < len(handles); end++ {
			if handles[end].offset != handles[end-1].offset+handles[end-1].length+4 {
				break
			}
			if b, ok := resident(handles[end]); ok {
				b.Release()
				break
			}
		}
		if sp.err = rd.readRun(handles[i:end], sp); sp.err != nil && end-i > 1 {
			// Whatever failed, a read or a checksum, belongs to one block:
			// fetch the run again block by block, so that every block before
			// that one is delivered and the error follows exactly those.
			sp.err = nil
			for ; i < end && sp.err == nil; i++ {
				sp.err = rd.readRun(handles[i:i+1], sp)
			}
		}
		i = end
	}
}

// readRun reads the adjacent blocks at handles with one ReadAt and appends
// them, verified, to sp, each holding one reference on the buffer. On an
// error it appends none of them.
func (rd *Reader) readRun(handles []blockHandle, sp *span) error {
	first, last := handles[0], handles[len(handles)-1]
	buf := cache.Uncached.Alloc(cache.Key{Table: rd.id, Offset: first.offset}, int(last.offset+last.length+4-first.offset))
	if _, err := rd.r.ReadAt(buf.Buf(), int64(first.offset)); err != nil {
		buf.Release()
		return fmt.Errorf("sstable: read block at %d: %w", first.offset, err)
	}
	blocks := sp.blocks[sp.n : sp.n+len(handles)]
	for i, h := range handles {
		off := int(h.offset - first.offset)
		data, err := decodeDataBlock(buf.Buf()[off : off+int(h.length)+4])
		if err != nil {
			buf.Release()
			return err
		}
		blocks[i] = fetched{data: data, cold: true}
	}
	// Alloc's reference goes with the first block; the others take their own.
	blocks[0].pin = buf
	for i := range blocks[1:] {
		buf.Pin()
		blocks[i+1].pin = buf
	}
	sp.n += len(handles)
	return nil
}

// cursor is a position in a table's block index: the next block to load.
type cursor struct {
	handles []blockHandle // block handles of the chunk being iterated
	ci      int           // next chunk to load (handles == nil) or current+1
	bi      int           // next block to load within handles
}

// next returns the handles of up to n blocks from the position on, all in
// one index chunk, and moves past them; none at the end of the table.
func (c *cursor) next(rd *Reader, n int) ([]blockHandle, error) {
	for c.handles == nil || c.bi >= len(c.handles) {
		if c.ci >= len(rd.chunks) {
			return nil, nil
		}
		handles, err := rd.chunkHandles(c.ci)
		if err != nil {
			return nil, err
		}
		c.handles, c.ci, c.bi = handles, c.ci+1, 0
	}
	hs := c.handles[c.bi:min(c.bi+n, len(c.handles))]
	c.bi += len(hs)
	return hs, nil
}

// scanState is a started ScanIter's span: the blocks it fetched last, of
// which those from si on are not yet entered.
type scanState struct {
	sp span
	si int
}

// stopAhead releases the blocks a ScanIter fetched and has not yet entered;
// its next fetchBlock reads on from the cursor.
func (it *Iter) stopAhead() {
	if s := it.scan; s != nil {
		s.sp.release(s.si)
		it.scan = nil
	}
}

// fetchBlock returns the next block in table order, pinned; one without a
// pin and without an error is the end of the table. An Iter reads through
// the cache, block by block; a ScanIter fetches a span at a time.
func (it *Iter) fetchBlock() (fetched, error) {
	if !it.nofill {
		hs, err := it.cursor.next(it.rd, 1)
		if len(hs) == 0 {
			return fetched{}, err
		}
		b, err := it.rd.readBlock(hs[0])
		if err != nil {
			return fetched{}, err
		}
		return fetched{pin: b, data: b.Data()}, nil
	}
	s := it.scan
	if s == nil {
		s = new(scanState)
		it.scan = s
	}
	if s.si >= s.sp.n {
		if s.sp.err != nil {
			return fetched{}, s.sp.err
		}
		hs, err := it.cursor.next(it.rd, spanBlocks)
		if len(hs) == 0 {
			return fetched{}, err
		}
		it.rd.fetchSpan(hs, &s.sp)
		s.si = 0
		if s.sp.n == 0 {
			return fetched{}, s.sp.err
		}
	}
	s.si++
	return s.sp.blocks[s.si-1], nil
}

// nextBlock loads the next data block, crossing into the next index chunk
// as needed; it reports false at the end of the table or on error.
func (it *Iter) nextBlock() bool {
	f, err := it.fetchBlock()
	if err != nil {
		it.err = err
		return false
	}
	if f.pin == nil {
		return false
	}
	it.cold = f.cold
	// The block just finished stays pinned one block longer; the one before
	// it is now two Nexts behind every entry anyone may still hold.
	if it.prev != nil {
		it.prev.Release()
	}
	it.prev, it.blk = it.blk, f.pin
	if it.spend && !f.cold {
		// The merge holds its pin; the cache's copy is dead once the merge
		// commits and is the first to go when the output needs the room. (A
		// block evicted since the fetch is no longer the cache's to move.)
		it.rd.blocks.Demote(f.pin)
	}
	if err := it.v3.enter(f.data); err != nil {
		it.err = err
		return false
	}
	if it.v3.pb.n == 0 {
		// The Writer never emits a block without entries; refusing one
		// keeps "a Next crosses at most one block boundary" — and with it
		// the validity rule — free of conditions.
		it.err = ErrCorrupt
		return false
	}
	return true
}

func (it *Iter) advance() {
	if it.err != nil {
		return
	}
	for {
		ok, err := it.v3.next(&it.cur)
		if err != nil {
			it.err = err
			return
		}
		if ok {
			it.valid = true
			return
		}
		if !it.nextBlock() {
			return
		}
	}
}
