package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

// Writer builds an sstable from entries added in strictly increasing key
// order. Use one Writer per table; call Finish exactly once.
type Writer struct {
	w   io.Writer
	off uint64
	// blockSize is the target data-block frame size and chunkSize the number
	// of block handles per index chunk: BlockSize and DefaultIndexChunkSize,
	// unless a test chose others.
	blockSize, chunkSize int

	// blocks is where finished data blocks are published (PublishTo), under
	// the table's id; inputs, set by a merge, are the iterators the entries
	// come from.
	blocks Cache
	id     uint64
	inputs []Iter

	bb       blockBuilder // current block
	blockKey []byte       // index key of the current block
	frameBuf []byte       // reusable frame buffer, one allocation per table
	// index encodes the handles of the chunk being filled; chunks holds the
	// finished ones, framed, for Finish to write and the Reader to keep.
	index   indexBuilder
	chunks  []indexBlock
	filter  *bloom.Filter
	sketch  *hll.Sketch
	scratch bool // see Scratch

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
	top    indexBlock
}

// NewWriter creates a Writer emitting to w. expectedEntries sizes the Bloom filter; an estimate is fine, and zero
// selects a small default.
func NewWriter(w io.Writer, expectedEntries int) *Writer {
	if expectedEntries <= 0 {
		expectedEntries = 1024
	}
	return &Writer{
		w:         w,
		blockSize: BlockSize,
		chunkSize: DefaultIndexChunkSize,
		blocks:    cache.Uncached,
		id:        tableIDs.Add(1),
		filter:    bloom.NewWithEstimates(uint64(expectedEntries), 0.01),
		sketch:    hll.MustNew(SketchPrecision),
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

// Scratch marks the table as a merge's intermediate output, which the next
// merge reads whole and which dies when the root installs: no lookup probes
// it and no plan sizes it, so Add hashes no key. Its filter is one word
// with every bit set (bloom.Full) — it answers "maybe" for every key, so a
// lookup that did probe the table would pay a read, never a wrong answer —
// and its key sketch stays empty. Its blocks, CRCs and index are a table's
// like any other. Call before the first Add.
func (w *Writer) Scratch() {
	w.scratch = true
	w.filter = bloom.Full()
}

// Abandon drops every block the Writer has published.
func (w *Writer) Abandon() { w.blocks.DropTable(w.id) }

// Reader hands over the finished table as a Reader of file, which holds
// the bytes the Writer wrote (for a table on disk, the handle it was written
// through). Everything Finish wrote — footer, filter, bounds, sketch and
// every index chunk, in the bytes it was written from — comes from what the
// Writer holds, so the Reader reads nothing back; its data blocks are found
// in the cache the Writer published them to. If file is also an io.Closer,
// the Reader owns it: Close closes it. Call once, after a successful Finish.
func (w *Writer) Reader(file io.ReaderAt) *Reader {
	if !w.finished {
		panic("sstable: Reader before Finish")
	}
	rd := &Reader{id: w.id, r: file, size: int64(w.off), f: w.f, bounds: w.bounds, top: w.top,
		chunks: make([]atomic.Pointer[indexBlock], len(w.chunks)),
		filter: w.filter, sketch: w.sketch, blocks: w.blocks}
	rd.closer, _ = file.(io.Closer)
	for ci := range rd.chunks {
		rd.chunks[ci].Store(&w.chunks[ci])
	}
	return rd
}

// inputsResident reports whether every entry a merge consumed from its
// inputs since the previous call — kept, shadowed or dropped — came from a
// block resident in the cache. A Writer without inputs (a flush) is writing
// what users just wrote: always resident.
func (w *Writer) inputsResident() bool {
	resident := true
	for i := range w.inputs {
		resident = resident && !w.inputs[i].sawCold
		w.inputs[i].sawCold = false
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
	if !w.bb.empty() && w.bb.size()+len(e.Key)+len(e.Value)+64 > w.blockSize && w.bb.frameWith(e) > w.blockSize {
		if err := w.flushBlock(); err != nil {
			return err
		}
	}
	if w.bb.empty() {
		// The index key: the shortest prefix of e.Key above the last key, e.Key
		// whole in the first block.
		n := len(e.Key)
		if w.entryCount > 0 {
			n = sharedPrefix(w.lastKey, e.Key) + 1
		}
		w.blockKey = append(w.blockKey[:0], e.Key[:n]...)
	}
	if w.entryCount == 0 || e.Seq < w.minSeq {
		w.minSeq = e.Seq
	}
	if e.Seq > w.maxSeq {
		w.maxSeq = e.Seq
	}
	w.bb.add(e)
	w.lastKey = append(w.lastKey[:0], e.Key...)
	if !w.scratch {
		h := keyhash.Of(e.Key)
		w.filter.AddHash(h)
		w.sketch.AddUint64(h.H1)
	}
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
	w.index.add(blockHandle{
		key:    w.blockKey,
		offset: w.off,
		length: uint64(len(framed) - 4), // stored payload, excluding crc
	})
	if len(w.index.offs) == w.chunkSize {
		w.chunks = append(w.chunks, w.index.finish())
	}
	if _, err := w.w.Write(framed); err != nil {
		return fmt.Errorf("sstable: write block: %w", err)
	}
	w.blocks.Publish(cache.Key{Table: w.id, Offset: w.off}, body, !w.inputsResident())
	w.off += uint64(len(framed))
	w.bb.reset()
	return nil
}

// indexBuilder encodes a list of handles as they arrive: the block handles
// of one index chunk, or the chunk handles of the top-level index.
type indexBuilder struct {
	body []byte   // the handles added so far, encoded, without the count
	offs []uint32 // where each starts in body
}

func (b *indexBuilder) add(h blockHandle) {
	b.offs = append(b.offs, uint32(len(b.body)))
	b.body = binary.AppendUvarint(b.body, uint64(len(h.key)))
	b.body = append(b.body, h.key...)
	b.body = binary.AppendUvarint(b.body, h.offset)
	b.body = binary.AppendUvarint(b.body, h.length)
}

// finish returns the handles added since the last finish as an indexBlock,
// in an array of its exact size that holds the payload's crc32 right after
// it, and starts the next list.
func (b *indexBuilder) finish() indexBlock {
	count := uint64(len(b.offs))
	buf := make([]byte, 0, uvarintLen(count)+len(b.body)+4)
	buf = binary.AppendUvarint(buf, count)
	shift := uint32(len(buf))
	buf = append(buf, b.body...)
	ib := indexBlock{data: buf, offs: make([]uint32, len(b.offs))}
	binary.LittleEndian.PutUint32(buf[len(buf):cap(buf)], crc32.Checksum(buf, crcTable))
	for i, o := range b.offs {
		ib.offs[i] = o + shift
	}
	b.body, b.offs = b.body[:0], b.offs[:0]
	return ib
}

// writeIndex emits the index — the chunks, then the top-level chunk index,
// which it keeps in w.top — and points f at it.
func (w *Writer) writeIndex(f *footer) error {
	if len(w.index.offs) > 0 {
		w.chunks = append(w.chunks, w.index.finish())
	}
	for _, c := range w.chunks {
		framed := c.data[:len(c.data)+4] // payload and crc32, as finish left them
		w.index.add(blockHandle{key: c.handle(0).key, offset: w.off, length: uint64(len(framed))})
		if _, err := w.w.Write(framed); err != nil {
			return fmt.Errorf("sstable: write index chunk: %w", err)
		}
		w.off += uint64(len(framed))
	}
	w.top = w.index.finish()
	framed := w.top.data[:len(w.top.data)+4]
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
		w.bounds = Bounds{Smallest: w.top.handle(0).key, Largest: w.lastKey, MinSeq: w.minSeq, MaxSeq: w.maxSeq}
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
