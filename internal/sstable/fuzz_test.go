package sstable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/iterator"
	"repro/internal/vfs"
)

// FuzzDecodeEntry throws arbitrary bytes at the entry decoder, read as the
// first entry of a block (a restart, no previous key): it must never panic
// or read out of bounds, and on valid encodings it must round-trip through
// the block builder.
func FuzzDecodeEntry(f *testing.F) {
	first := func(e iterator.Entry) []byte {
		var bb blockBuilder
		bb.add(e)
		return append([]byte(nil), bb.buf...)
	}
	f.Add(first(iterator.Entry{Key: []byte("key"), Value: []byte("value"), Seq: 7}))
	f.Add(first(iterator.Entry{Key: []byte("k"), Seq: 1, Tombstone: true}))
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var h v3EntryHeader
		if err := decodeV3Header(&h, data, 0, 0); err != nil {
			if err != ErrCorrupt {
				t.Fatalf("decode err = %v, want ErrCorrupt", err)
			}
			return
		}
		if h.next > len(data) || h.shared != 0 {
			t.Fatalf("decoded past the input (next %d of %d) or shared %d", h.next, len(data), h.shared)
		}
		// Re-encode and decode again: must agree.
		e := iterator.Entry{Key: h.keySuffix, Value: h.value, Seq: h.seq, Tombstone: h.tombstone}
		enc := first(e)
		var h2 v3EntryHeader
		if err := decodeV3Header(&h2, enc, 0, 0); err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(h.keySuffix, h2.keySuffix) || h.seq != h2.seq || h.tombstone != h2.tombstone ||
			!bytes.Equal(h.value, h2.value) || h2.next != len(enc) {
			t.Fatalf("entry changed across re-encode: %+v vs %+v", h, h2)
		}
	})
}

// FuzzReaderOpen feeds arbitrary bytes to the table opener: corrupt tables
// must be rejected with an error, never a panic or a successful open that
// later misbehaves. Seeds include current tables (whole, truncated, one
// block under each retired codec byte, multi-chunk) and tables under the
// magics of earlier formats, which must be refused — so the footer check,
// the partitioned-index parser and the prefix-decoding walk are all fuzzed.
func FuzzReaderOpen(f *testing.F) {
	var entries []iterator.Entry
	for _, k := range []string{"a", "b", "c"} {
		entries = append(entries, iterator.Entry{Key: []byte(k), Value: []byte("v"), Seq: 1})
	}
	build := func(opts writerOptions) []byte {
		var buf bytes.Buffer
		w := newWriterOpts(&buf, len(entries), opts)
		for _, e := range entries {
			if err := w.Add(e); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.Finish(); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	table := build(writerOptions{})
	withMagic := func(magic string) []byte {
		out := append([]byte(nil), table...)
		for i := 0; i < 8; i++ {
			out[len(out)-1-i] = magic[i] // little-endian
		}
		return out
	}
	v2 := withMagic("STBL002F")
	f.Add(v2)
	f.Add(v2[:len(v2)-5])
	f.Add(withMagic("STBL001F"))
	f.Add(table)
	f.Add(table[:len(table)-5])
	f.Add(table[:len(table)-footerSize-3]) // footer gone, index truncated
	f.Add(withBlockCodec(f, table, 2))
	f.Add(withBlockCodec(f, table, 1))
	f.Add(build(writerOptions{BlockSize: 16, IndexChunkSize: 1})) // many chunks
	f.Add([]byte("not a table"))
	f.Add(withMagic("STBL003F"))
	golden := goldenBytes(f)
	f.Add(withIndexCount(f, golden, -1, 1<<40)) // the top-level index
	f.Add(withIndexCount(f, golden, 0, 1<<40))  // one chunk
	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			return
		}
		// Openable tables must scan without panicking; errors are fine.
		it := rd.Iter()
		for it.Valid() {
			it.Next()
		}
		_, _ = rd.Get([]byte("a"))
		// Bounds of an openable table must be internally consistent.
		if b, ok := rd.Bounds(); ok {
			if bytes.Compare(b.Smallest, b.Largest) > 0 {
				t.Fatalf("bounds inverted: smallest %q > largest %q", b.Smallest, b.Largest)
			}
			if b.MinSeq > b.MaxSeq {
				t.Fatalf("seq bounds inverted: %d > %d", b.MinSeq, b.MaxSeq)
			}
		}
	})
}

// FuzzBornReaderMatchesReopened: the Reader a Writer hands over is the
// Reader OpenFS makes of the same file — the same footer, bounds, top index,
// block handles in every chunk, filter and sketch, and the same answer to
// every Get and a whole Iter. The engine does not re-open the tables it
// writes, so this is where a Writer/Reader encoding mismatch shows. The
// fuzzer draws the entry set — its size, values up to many times the block
// size, tombstones — and the index chunk size (0 selects DefaultIndexChunkSize).
func FuzzBornReaderMatchesReopened(f *testing.F) {
	f.Add(int64(1), uint16(0), uint16(0), uint8(0), uint16(0))      // the empty table
	f.Add(int64(2), uint16(1), uint16(10), uint8(0), uint16(0))     // one entry
	f.Add(int64(3), uint16(300), uint16(40), uint8(3), uint16(1))   // tombstones, one block a chunk
	f.Add(int64(4), uint16(200), uint16(5999), uint8(0), uint16(2)) // large values, two blocks a chunk
	f.Add(int64(5), uint16(599), uint16(100), uint8(7), uint16(256))
	f.Fuzz(func(t *testing.T, seed int64, n, maxVal uint16, tombEvery uint8, chunk uint16) {
		rng := rand.New(rand.NewSource(seed))
		entries := make([]iterator.Entry, n%600)
		for i := range entries {
			e := &entries[i]
			e.Key = fmt.Appendf(nil, "%08d%s", i*3+rng.Intn(3), bytes.Repeat([]byte{'x'}, rng.Intn(20)))
			e.Seq = rng.Uint64() >> 8
			if e.Tombstone = tombEvery > 0 && rng.Intn(int(tombEvery)) == 0; !e.Tombstone {
				e.Value = bytes.Repeat([]byte{byte(i)}, rng.Intn(int(maxVal%6000)+1))
			}
		}
		path := filepath.Join(t.TempDir(), "t.sst")
		file, err := vfs.Default.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := newWriterOpts(file, len(entries), writerOptions{BlockSize: 256, IndexChunkSize: int(chunk % 1024)})
		for _, e := range entries {
			if err := w.Add(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		born := w.Reader(file)
		defer born.Close()
		re, err := OpenFS(vfs.Default, path, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()

		if born.f != re.f || born.size != re.size || !sameBounds(born.bounds, re.bounds) {
			t.Fatalf("footer %+v size %d bounds %+v; reopened %+v %d %+v", born.f, born.size, born.bounds, re.f, re.size, re.bounds)
		}
		if !bytes.Equal(born.filter.Marshal(), re.filter.Marshal()) || !bytes.Equal(born.sketch.Marshal(), re.sketch.Marshal()) {
			t.Fatal("filter or sketch differs from the reopened table's")
		}
		sameIndex := func(a, b *indexBlock) bool {
			return bytes.Equal(a.data, b.data) && slices.Equal(a.offs, b.offs)
		}
		if !sameIndex(&born.top, &re.top) || len(born.chunks) != len(re.chunks) {
			t.Fatalf("top index %+v, reopened %+v", born.top, re.top)
		}
		for ci := range born.chunks {
			seeded := born.chunks[ci].Load()
			read, err := re.chunk(ci)
			if seeded == nil || err != nil || !sameIndex(seeded, read) {
				t.Fatalf("chunk %d: born with %+v, reopened reads %+v (%v)", ci, seeded, read, err)
			}
		}

		for _, e := range entries {
			for _, key := range [][]byte{e.Key, append(e.Key[:len(e.Key):len(e.Key)], 0)} {
				got, err := born.Get(key)
				want, rerr := re.Get(key)
				if err != rerr || !sameEntry(got, want) {
					t.Fatalf("Get(%q) = %v, %v; reopened %v, %v", key, got, err, want, rerr)
				}
			}
		}
		bi, ri := born.Iter(), re.Iter()
		defer bi.Close()
		defer ri.Close()
		for i := 0; ; i++ {
			if bi.Valid() != ri.Valid() {
				t.Fatalf("entry %d: valid %v, reopened %v", i, bi.Valid(), ri.Valid())
			}
			if !bi.Valid() {
				if i != len(entries) || bi.Err() != nil || ri.Err() != nil {
					t.Fatalf("iterated %d of %d entries: %v, reopened %v", i, len(entries), bi.Err(), ri.Err())
				}
				break
			}
			if !sameEntry(bi.Entry(), ri.Entry()) || !sameEntry(bi.Entry(), entries[i]) {
				t.Fatalf("entry %d: %q, reopened %q, written %q", i, bi.Entry().Key, ri.Entry().Key, entries[i].Key)
			}
			bi.Next()
			ri.Next()
		}
	})
}

// FuzzSeparatorIndexMatchesModel: a table indexed by shortest separators
// answers every Get and SeekGE as a sorted slice of its entries does — for
// present keys, for absent keys between blocks (around each index key), and
// below the first key and above the last — whether the Reader was handed over
// by the Writer or opened from the bytes. Keys come from a two-letter alphabet,
// so they share long prefixes and many are prefixes of the next; block sizes
// run 16–512 and index chunks 1–256 handles. Every index key is checked to be
// the shortest prefix of its block's first key above the previous block's last
// key, and the first block's to be its first key whole.
func FuzzSeparatorIndexMatchesModel(f *testing.F) {
	f.Add(int64(1), uint16(1), uint16(0), uint8(0))
	f.Add(int64(2), uint16(300), uint16(40), uint8(3))
	f.Add(int64(3), uint16(599), uint16(496), uint8(255))
	f.Add(int64(4), uint16(150), uint16(100), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, n, blockSize uint16, chunk uint8) {
		rng := rand.New(rand.NewSource(seed))
		set := map[string]bool{}
		for i := 0; i < int(n%600)+1; i++ {
			k := make([]byte, 1+rng.Intn(12))
			for j := range k {
				k[j] = "ab"[rng.Intn(2)]
			}
			set[string(k)] = true
		}
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		entries := make([]iterator.Entry, len(keys))
		for i, k := range keys {
			entries[i] = iterator.Entry{Key: []byte(k), Seq: uint64(i + 1), Tombstone: rng.Intn(8) == 0}
			if !entries[i].Tombstone {
				entries[i].Value = bytes.Repeat([]byte{byte(i)}, rng.Intn(64))
			}
		}
		var buf bytes.Buffer
		w := newWriterOpts(&buf, len(entries), writerOptions{BlockSize: 16 + int(blockSize%497), IndexChunkSize: 1 + int(chunk)})
		for _, e := range entries {
			if err := w.Add(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		born := w.Reader(bytes.NewReader(buf.Bytes()))
		opened, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}

		probes := [][]byte{{0}, []byte("a"), []byte("b"), []byte("bbbbbbbbbbbbb"), {0xff}}
		var prevLast []byte
		for i, h := range allHandles(t, opened) {
			first, last := blockBounds(t, opened, h)
			switch {
			case i == 0 && !bytes.Equal(h.key, first):
				t.Fatalf("block 0: index key %q, first key %q", h.key, first)
			case i > 0 && (bytes.Compare(h.key, prevLast) <= 0 || !bytes.HasPrefix(first, h.key) ||
				bytes.Compare(h.key[:len(h.key)-1], prevLast) > 0):
				t.Fatalf("block %d: index key %q is not the shortest prefix of %q above %q", i, h.key, first, prevLast)
			}
			probes = append(probes, h.key, h.key[:len(h.key)-1], append(bytes.Clone(prevLast), 0), first, last)
			prevLast = last
		}
		for _, e := range entries {
			probes = append(probes, e.Key, append(bytes.Clone(e.Key), 'a'-1), e.Key[:len(e.Key)-1])
		}

		for _, rd := range []*Reader{born, opened} {
			for _, p := range probes {
				i := sort.Search(len(entries), func(i int) bool { return bytes.Compare(entries[i].Key, p) >= 0 })
				got, err := rd.Get(p)
				if i < len(entries) && bytes.Equal(entries[i].Key, p) {
					if err != nil || !sameEntry(got, entries[i]) {
						t.Fatalf("Get(%q) = %q, %v; want %q", p, got.Value, err, entries[i].Value)
					}
				} else if err != ErrNotFound {
					t.Fatalf("Get(%q) of an absent key: %v", p, err)
				}
				it := iterFrom(rd, p)
				for j := i; j < min(i+3, len(entries)); j++ {
					if !it.Valid() || !sameEntry(it.Entry(), entries[j]) {
						t.Fatalf("SeekGE(%q) entry %d: %q (valid %v, %v), want %q", p, j-i, it.Entry().Key, it.Valid(), it.Err(), entries[j].Key)
					}
					it.Next()
				}
				if i+3 >= len(entries) && it.Valid() {
					t.Fatalf("SeekGE(%q): %q past the last entry", p, it.Entry().Key)
				}
				it.Close()
			}
		}
	})
}

// blockBounds returns the first and last key of the data block at h.
func blockBounds(t *testing.T, rd *Reader, h blockHandle) (first, last []byte) {
	t.Helper()
	b, err := rd.readBlock(h)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	var it v3BlockIter
	if err := it.enter(b.Data()); err != nil {
		t.Fatal(err)
	}
	var e iterator.Entry
	for {
		ok, err := it.next(&e)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return first, last
		}
		if first == nil {
			first = bytes.Clone(e.Key)
		}
		last = bytes.Clone(e.Key)
	}
}

func sameBounds(a, b Bounds) bool {
	return bytes.Equal(a.Smallest, b.Smallest) && bytes.Equal(a.Largest, b.Largest) && a.MinSeq == b.MinSeq && a.MaxSeq == b.MaxSeq
}

// FuzzV3Block throws arbitrary payloads at the restart-block parser,
// search and iterator. Structural corruption — truncated or garbage
// restart counts, out-of-order or out-of-range offsets, shared-prefix
// lengths exceeding the previous key — must surface as ErrCorrupt, never a
// panic, an infinite loop or an out-of-bounds read.
func FuzzV3Block(f *testing.F) {
	var bb blockBuilder
	for _, k := range []string{"alpha", "alphabet", "beta", "betamax", "gamma"} {
		bb.add(iterator.Entry{Key: []byte(k), Value: []byte("v"), Seq: 9})
	}
	good := append([]byte(nil), bb.finish()...)
	f.Add(good)
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	// Garbage restart count.
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] = 0xff
	f.Add(bad)
	// Out-of-order restarts: swap the first two offsets (the builder emits
	// one restart per 16 entries, so force a tiny hand-made trailer).
	f.Add([]byte{
		'x', 'y', // "data" the offsets point into
		4, 0, 0, 0, // restart[0] = 4 (not 0: must be rejected)
		1, 0, 0, 0, // count = 1
	})
	// Shared-prefix corruption: entry 1 claims more shared bytes than the
	// restart key has.
	var small blockBuilder
	small.add(iterator.Entry{Key: []byte("ab"), Value: []byte("1"), Seq: 1})
	small.add(iterator.Entry{Key: []byte("ac"), Value: []byte("2"), Seq: 2})
	corrupt := append([]byte(nil), small.finish()...)
	corrupt[8] = 30
	f.Add(corrupt)
	f.Fuzz(func(t *testing.T, payload []byte) {
		pb, err := parseV3Block(payload)
		if err != nil {
			if err != ErrCorrupt {
				t.Fatalf("parse err = %v, want ErrCorrupt", err)
			}
			return
		}
		for _, probe := range [][]byte{nil, []byte("a"), []byte("alphabet"), []byte("zz")} {
			var hd v3EntryHeader
			if err := searchV3Block(pb, probe, &hd); err != nil && err != ErrNotFound && err != ErrCorrupt {
				t.Fatalf("search err = %v", err)
			}
		}
		// Structural parse success does not imply semantic validity (key
		// order is guarded by the frame CRC, not re-verified per entry), so
		// iteration may yield arbitrary keys — it just must terminate
		// without panicking, and every error must be ErrCorrupt.
		it := &v3BlockIter{pb: pb}
		var e iterator.Entry
		for steps := 0; ; steps++ {
			if steps > len(payload)+1 {
				t.Fatal("iterator did not terminate")
			}
			ok, err := it.next(&e)
			if err != nil {
				if err != ErrCorrupt {
					t.Fatalf("iter err = %v, want ErrCorrupt", err)
				}
				return
			}
			if !ok {
				return
			}
		}
	})
}

// FuzzFastDecode frames arbitrary bodies and claimed lengths under codec
// bytes 2 and 1, which the retired snappy-style Fast codec and DEFLATE wrote
// and nothing decodes any more: every such frame, checksum intact, fails
// with ErrCorrupt — never a panic, never a payload.
func FuzzFastDecode(f *testing.F) {
	f.Add([]byte{}, 0)
	f.Add([]byte("hello hello hello hello"), 23)
	f.Add(bytes.Repeat([]byte{7}, 300), 300)
	f.Add([]byte{0xff, 0xff, 0xff}, 100)
	f.Fuzz(func(t *testing.T, body []byte, rawLen int) {
		if rawLen < 0 {
			return
		}
		for _, codec := range []byte{2, 1} {
			frame := binary.AppendUvarint([]byte{codec}, uint64(rawLen))
			frame = append(frame, body...)
			frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame, crcTable))
			if out, err := decodeDataBlock(frame); err != ErrCorrupt {
				t.Fatalf("codec-%d frame decoded to %d bytes, err %v; want ErrCorrupt", codec, len(out), err)
			}
		}
	})
}

// withBlockCodec returns a copy of the table data whose first data block
// claims codec byte codec, its checksum recomputed so that only the codec
// is wrong.
func withBlockCodec(tb testing.TB, data []byte, codec byte) []byte {
	tb.Helper()
	rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		tb.Fatal(err)
	}
	c, err := rd.chunk(0)
	if err != nil {
		tb.Fatal(err)
	}
	h := c.handle(0)
	out := append([]byte(nil), data...)
	frame := out[h.offset : h.offset+h.length]
	frame[0] = codec
	binary.LittleEndian.PutUint32(out[h.offset+h.length:], crc32.Checksum(frame, crcTable))
	return out
}

// withIndexCount returns a copy of the table data whose top-level index (ci
// < 0) or index chunk ci claims count handles. The list keeps its length —
// the bytes after the new count are the old handles, cut short — and its
// checksum is recomputed, so only the count gives it away.
func withIndexCount(tb testing.TB, data []byte, ci int, count uint64) []byte {
	tb.Helper()
	rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		tb.Fatal(err)
	}
	off, length := rd.f.indexOff, rd.f.indexLen
	if ci >= 0 {
		h := rd.top.handle(ci)
		off, length = h.offset, h.length
	}
	out := append([]byte(nil), data...)
	payload := out[off : off+length-4]
	_, n := binary.Uvarint(payload)
	copy(payload, append(binary.AppendUvarint(nil, count), payload[n:]...))
	binary.LittleEndian.PutUint32(out[off+length-4:], crc32.Checksum(payload, crcTable))
	return out
}

// TestForgedIndexCountRefused: an index list claiming 2^40 handles behind a
// valid checksum is ErrCorrupt — the top-level index at open, a chunk at the
// first lookup that lands in it — and nothing is sized by the count first.
func TestForgedIndexCountRefused(t *testing.T) {
	data := goldenBytes(t)
	forged := withIndexCount(t, data, -1, 1<<40)
	if _, err := NewReader(bytes.NewReader(forged), int64(len(forged))); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a top-level index claiming 2^40 chunks: NewReader err = %v, want ErrCorrupt", err)
	}
	forged = withIndexCount(t, data, 0, 1<<40)
	rd, err := NewReader(bytes.NewReader(forged), int64(len(forged)))
	if err != nil {
		t.Fatalf("a forged chunk is read at its first lookup, not at open: %v", err)
	}
	if _, err := rd.Get(goldenEntries()[0].Key); !errors.Is(err, ErrCorrupt) {
		t.Errorf("a chunk claiming 2^40 blocks: Get err = %v, want ErrCorrupt", err)
	}
}

// FuzzIndexChunk throws arbitrary payloads straight at the index decoder, as
// one index chunk of a 1 MiB file — past the checksum, which FuzzReaderOpen's
// random bytes almost never pass. It must never panic or size its offsets by
// more handles than the payload can hold, every handle it accepts must lie in
// the file, and what it accepts must survive a re-encode through
// indexBuilder, handle for handle and offset for offset. Where the keys
// ascend, a search for each key lands on its handle.
func FuzzIndexChunk(f *testing.F) {
	var b indexBuilder
	b.add(blockHandle{key: []byte("apple"), offset: 0, length: 100})
	b.add(blockHandle{key: []byte("b"), offset: 104, length: BlockSize})
	b.add(blockHandle{key: bytes.Repeat([]byte("c"), 200), offset: 1644, length: 1})
	good := b.finish().data
	f.Add(good)
	f.Add(good[:len(good)-1])
	f.Add(append(binary.AppendUvarint(nil, 1<<40), good[1:]...))
	f.Add(binary.AppendUvarint(nil, uint64(len(good))/3))
	f.Add([]byte{0})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		const size = 1 << 20
		ib, err := parseIndex(payload, 4, size)
		if err != nil {
			if err != ErrCorrupt {
				t.Fatalf("parse err = %v, want ErrCorrupt", err)
			}
			return
		}
		if cap(ib.offs) > len(payload)/3 {
			t.Fatalf("%d offsets allocated for a %d-byte payload", cap(ib.offs), len(payload))
		}
		var b indexBuilder
		for i := range ib.len() {
			h := ib.handle(i)
			if h.length < 1 || h.offset+h.length+4 > size {
				t.Fatalf("handle %d: %+v, in a %d-byte file", i, h, size)
			}
			b.add(h)
		}
		re := b.finish()
		again, err := parseIndex(re.data, 4, size)
		if err != nil || len(re.data) > len(payload) || !slices.Equal(again.offs, re.offs) {
			t.Fatalf("re-encoded %d bytes (from %d), offsets %v, parsed %v (%v)", len(re.data), len(payload), re.offs, again.offs, err)
		}
		ascending := true
		for i := range ib.len() {
			if h, r := ib.handle(i), re.handle(i); !bytes.Equal(h.key, r.key) || h.offset != r.offset || h.length != r.length {
				t.Fatalf("handle %d: %+v, re-encoded %+v", i, h, r)
			}
			ascending = ascending && (i == 0 || bytes.Compare(ib.handle(i-1).key, ib.handle(i).key) < 0)
		}
		for i := range ib.len() {
			if key := ib.handle(i).key; ascending && ib.search(key) != i {
				t.Fatalf("search(%q) = %d, want %d", key, ib.search(key), i)
			}
		}
	})
}
