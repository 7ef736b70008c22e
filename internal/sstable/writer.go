package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/bloom"
	"repro/internal/cache"
	"repro/internal/hll"
	"repro/internal/iterator"
	"repro/internal/keyhash"
)

// DefaultIndexChunkSize is the number of block handles per index chunk. At the default block size a chunk covers ~384 KiB
// of data, so even multi-gigabyte tables open by materializing only a few
// thousand top-level entries while each chunk parses lazily on first use.
const DefaultIndexChunkSize = 256

// WriterOptions configures table construction.
type WriterOptions struct {
	// BlockSize overrides the target data-block frame size; zero selects
	// BlockSize.
	BlockSize int
	// IndexChunkSize overrides the number of block handles per index
	// chunk; zero selects DefaultIndexChunkSize.
	IndexChunkSize int
}

func (o WriterOptions) withDefaults() WriterOptions {
	if o.BlockSize <= 0 {
		o.BlockSize = BlockSize
	}
	if o.IndexChunkSize <= 0 {
		o.IndexChunkSize = DefaultIndexChunkSize
	}
	return o
}

// Writer builds an sstable from entries added in strictly increasing key
// order. Use one Writer per table; call Finish exactly once.
type Writer struct {
	w    io.Writer
	off  uint64
	opts WriterOptions

	// blocks is where finished data blocks are published (PublishTo), under
	// the table's id; inputs, set by a merge, are the iterators the entries
	// come from.
	blocks Cache
	id     uint64
	inputs []*Iter

	bb       blockBuilder // current block
	blockKey []byte       // index key of the current block
	keys     keyArena     // backs every index key; never emptied
	frameBuf []byte       // reusable frame buffer, one allocation per table
	index    []blockHandle
	filter   *bloom.Filter
	sketch   *hll.Sketch

	lastKey    []byte
	minSeq     uint64
	maxSeq     uint64
	entryCount uint64
	keyBytes   uint64
	valBytes   uint64
	finished   bool

	// What Finish wrote, for the Reader it hands over.
	f      footer
	bounds Bounds
	chunks []blockHandle
}

// NewWriter creates a Writer emitting to w. expectedEntries sizes the Bloom filter; an estimate is fine, and zero
// selects a small default.
func NewWriter(w io.Writer, expectedEntries int) *Writer {
	return NewWriterOpts(w, expectedEntries, WriterOptions{})
}

// NewWriterOpts creates a Writer with its block size and index chunking
// chosen.
func NewWriterOpts(w io.Writer, expectedEntries int, opts WriterOptions) *Writer {
	if expectedEntries <= 0 {
		expectedEntries = 1024
	}
	return &Writer{
		w:      w,
		opts:   opts.withDefaults(),
		blocks: cache.Uncached,
		id:     tableIDs.Add(1),
		filter: bloom.NewWithEstimates(uint64(expectedEntries), 0.01),
		sketch: hll.MustNew(SketchPrecision),
	}
}

// PublishTo makes the Writer write through c: every data block is handed
// to c as it is written, under the key the Reader the Writer hands over
// will look it up by, so the finished table starts out resident instead of
// being read back on first use. A table written by a merge publishes a
// block cold unless the input blocks its entries came from were themselves
// resident: what was hot stays hot across the rewrite, and what was not
// takes the place of input the merge has spent or of nothing. A caller that
// gives the table up before taking its Reader must Abandon it. Call before
// the first Add.
func (w *Writer) PublishTo(c Cache) { w.blocks = c }

// Abandon drops every block the Writer has published.
func (w *Writer) Abandon() { w.blocks.DropTable(w.id) }

// Reader hands over the finished table as a Reader of file, which holds
// the bytes the Writer wrote (for a table on disk, the handle it was written
// through). Everything Finish wrote — footer, filter, bounds, sketch and
// every index chunk's block handles — comes from what the Writer holds, so
// the Reader reads nothing back; its data blocks are found in the cache the
// Writer published them to. If file is also an io.Closer, the Reader owns
// it: Close closes it. Call once, after a successful Finish.
func (w *Writer) Reader(file io.ReaderAt) *Reader {
	if !w.finished {
		panic("sstable: Reader before Finish")
	}
	rd := &Reader{id: w.id, r: file, size: int64(w.off), f: w.f, bounds: w.bounds, chunks: w.chunks,
		chunkData: make([]atomic.Pointer[[]blockHandle], len(w.chunks)),
		filter:    w.filter, sketch: w.sketch, blocks: w.blocks}
	rd.closer, _ = file.(io.Closer)
	for ci := range rd.chunkData {
		hs := w.index[ci*w.opts.IndexChunkSize : min((ci+1)*w.opts.IndexChunkSize, len(w.index))]
		rd.chunkData[ci].Store(&hs)
	}
	return rd
}

// inputsResident reports whether every entry a merge consumed from its
// inputs since the previous call — kept, shadowed or dropped — came from a
// block resident in the cache. A Writer without inputs (a flush) is writing
// what users just wrote: always resident.
func (w *Writer) inputsResident() bool {
	resident := true
	for _, it := range w.inputs {
		resident = resident && !it.sawCold
		it.sawCold = false
	}
	return resident
}

// Add appends an entry. Keys must be strictly increasing; duplicate or
// out-of-order keys are rejected.
func (w *Writer) Add(e iterator.Entry) error {
	if w.finished {
		return fmt.Errorf("sstable: Add after Finish")
	}
	if len(e.Key) == 0 {
		return fmt.Errorf("sstable: empty key")
	}
	if w.lastKey != nil && bytes.Compare(e.Key, w.lastKey) <= 0 {
		return fmt.Errorf("sstable: keys out of order: %q after %q", e.Key, w.lastKey)
	}
	// Cut before e if it would take the frame past the target (see BlockSize);
	// 64 bytes bound every varint, flag and slot, so most entries skip frameWith.
	if !w.bb.empty() && w.bb.size()+len(e.Key)+len(e.Value)+64 > w.opts.BlockSize && w.bb.frameWith(e) > w.opts.BlockSize {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	if w.bb.empty() {
		// The index key: the shortest prefix of e.Key above the last key, e.Key
		// whole in the first block; carved from chunks that never move.
		n := len(e.Key)
		if w.entryCount > 0 {
			n = sharedPrefix(w.lastKey, e.Key) + 1
		}
		w.blockKey = w.keys.alloc(n, w.opts.BlockSize)[:n:n]
		copy(w.blockKey, e.Key)
	}
	if w.entryCount == 0 || e.Seq < w.minSeq {
		w.minSeq = e.Seq
	}
	if e.Seq > w.maxSeq {
		w.maxSeq = e.Seq
	}
	w.bb.add(e)
	w.lastKey = append(w.lastKey[:0], e.Key...)
	h := keyhash.Of(e.Key)
	w.filter.AddHash(h)
	w.sketch.AddUint64(h.H1)
	w.entryCount++
	w.keyBytes += uint64(len(e.Key))
	w.valBytes += uint64(len(e.Value))
	return nil
}

func (w *Writer) flushBlock() error {
	if w.bb.empty() {
		return nil
	}
	body := w.bb.finish()
	// Frame the block in one pass into the Writer's reusable buffer: one
	// allocation for the lifetime of the table.
	framed := appendBlock(w.frameBuf[:0], body)
	w.frameBuf = framed
	w.index = append(w.index, blockHandle{
		key:    w.blockKey,
		offset: w.off,
		length: uint64(len(framed) - 4), // stored payload, excluding crc
	})
	if _, err := w.w.Write(framed); err != nil {
		return fmt.Errorf("sstable: write block: %w", err)
	}
	w.blocks.Publish(cache.Key{Table: w.id, Offset: w.off}, body, !w.inputsResident())
	w.off += uint64(len(framed))
	w.bb.reset()
	w.blockKey = nil
	return nil
}

// appendHandles encodes the block handles of one index chunk, or the chunk
// handles of the top-level index.
func appendHandles(dst []byte, handles []blockHandle) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(handles)))
	for _, h := range handles {
		dst = binary.AppendUvarint(dst, uint64(len(h.key)))
		dst = append(dst, h.key...)
		dst = binary.AppendUvarint(dst, h.offset)
		dst = binary.AppendUvarint(dst, h.length)
	}
	return dst
}

// writeIndex emits the index — fixed-size chunks plus a top-level chunk
// index, which it keeps in w.chunks — and points f at it.
func (w *Writer) writeIndex(f *footer) error {
	chunkSize := w.opts.IndexChunkSize
	for start := 0; start < len(w.index); start += chunkSize {
		end := min(start+chunkSize, len(w.index))
		framed := appendChecksummed(nil, appendHandles(nil, w.index[start:end]))
		w.chunks = append(w.chunks, blockHandle{
			key:    w.index[start].key,
			offset: w.off,
			length: uint64(len(framed)),
		})
		if _, err := w.w.Write(framed); err != nil {
			return fmt.Errorf("sstable: write index chunk: %w", err)
		}
		w.off += uint64(len(framed))
	}
	framed := appendChecksummed(nil, appendHandles(nil, w.chunks))
	f.indexOff, f.indexLen = w.off, uint64(len(framed))
	if _, err := w.w.Write(framed); err != nil {
		return fmt.Errorf("sstable: write index: %w", err)
	}
	w.off += uint64(len(framed))
	return nil
}

// Finish flushes the final block and writes the index, Bloom filter and
// footer. The Writer is unusable afterwards.
func (w *Writer) Finish() error {
	if w.finished {
		return fmt.Errorf("sstable: Finish called twice")
	}
	w.finished = true
	if err := w.flushBlock(); err != nil {
		return err
	}

	f := &w.f
	f.entryCount = w.entryCount
	f.keyBytes = w.keyBytes
	f.valBytes = w.valBytes

	if err := w.writeIndex(f); err != nil {
		return err
	}

	// Bloom block.
	framed := appendChecksummed(nil, w.filter.Marshal())
	f.bloomOff, f.bloomLen = w.off, uint64(len(framed))
	if _, err := w.w.Write(framed); err != nil {
		return fmt.Errorf("sstable: write bloom: %w", err)
	}
	w.off += uint64(len(framed))

	// Bounds block: the key range and sequence range the engine's read
	// path prunes with, then the key sketch. An empty table encodes nil keys
	// and a zero range.
	if w.entryCount > 0 {
		w.bounds = Bounds{Smallest: w.index[0].key, Largest: w.lastKey, MinSeq: w.minSeq, MaxSeq: w.maxSeq}
	}
	framed = appendChecksummed(nil, appendBoundsSketch(marshalBounds(w.bounds), w.sketch))
	f.boundsOff, f.boundsLen = w.off, uint64(len(framed))
	if _, err := w.w.Write(framed); err != nil {
		return fmt.Errorf("sstable: write bounds: %w", err)
	}
	w.off += uint64(len(framed))

	if _, err := w.w.Write(f.marshal()); err != nil {
		return fmt.Errorf("sstable: write footer: %w", err)
	}
	w.off += footerSize
	return nil
}

// Size returns the number of bytes emitted so far (the final file size
// after Finish).
func (w *Writer) Size() uint64 { return w.off }

// EntryCount returns the number of entries added so far.
func (w *Writer) EntryCount() uint64 { return w.entryCount }

// WriteAll drains it into w in order and finishes the table; a convenience
// wrapper used by flushes and compaction merges.
func WriteAll(w *Writer, it iterator.Iterator) error {
	for ; it.Valid(); it.Next() {
		if err := w.Add(it.Entry()); err != nil {
			return err
		}
	}
	return w.Finish()
}
