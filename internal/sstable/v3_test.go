package sstable

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/cache"
	"repro/internal/iterator"
	"repro/internal/vfs"
)

// prefixedEntries builds sorted entries with heavily shared key prefixes:
// the shape restart-point prefix compression is built for.
func prefixedEntries(n int) []iterator.Entry {
	var entries []iterator.Entry
	for i := 0; i < n; i++ {
		e := iterator.Entry{
			Key: []byte(fmt.Sprintf("user/%04d/profile/%06d", i/100, i)),
			Seq: uint64(i + 1),
		}
		if i%17 == 0 {
			e.Tombstone = true
		} else {
			e.Value = []byte(fmt.Sprintf("value-%d", i))
		}
		entries = append(entries, e)
	}
	return entries
}

// writerOptions chooses a test Writer's block size and index chunking; a
// zero field keeps the default.
type writerOptions struct{ BlockSize, IndexChunkSize int }

// newWriterOpts is NewWriter with the block size and index chunking opts
// choose.
func newWriterOpts(w io.Writer, expectedEntries int, opts writerOptions) *Writer {
	tw := NewWriter(w, expectedEntries)
	tw.blockSize = cmp.Or(opts.BlockSize, tw.blockSize)
	tw.chunkSize = cmp.Or(opts.IndexChunkSize, tw.chunkSize)
	return tw
}

// iterFrom returns a new iterator over rd opened at start.
func iterFrom(rd *Reader, start []byte) *Iter {
	it := new(Iter)
	rd.OpenIter(it, start)
	return it
}

func buildTableOpts(t testing.TB, entries []iterator.Entry, opts writerOptions) *Reader {
	t.Helper()
	var buf bytes.Buffer
	w := newWriterOpts(&buf, len(entries), opts)
	for _, e := range entries {
		if err := w.Add(e); err != nil {
			t.Fatalf("Add(%q): %v", e.Key, err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	return rd
}

// TestRoundTripAcrossVersionsAndCodecs proves the default layout and a
// small-block, many-chunk one write tables that read back identically:
// point lookups, ordered scans and seeks.
func TestRoundTripAcrossVersionsAndCodecs(t *testing.T) {
	entries := prefixedEntries(3000)
	cases := []struct {
		name string
		opts writerOptions
	}{
		{"v3-raw", writerOptions{}},
		{"v3-chunked", writerOptions{BlockSize: 256, IndexChunkSize: 4}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rd := buildTableOpts(t, entries, c.opts)
			// Every key resolves with its exact version and value.
			for _, want := range entries {
				got, err := rd.Get(want.Key)
				if err != nil {
					t.Fatalf("Get(%q): %v", want.Key, err)
				}
				if got.Seq != want.Seq || got.Tombstone != want.Tombstone || !bytes.Equal(got.Value, want.Value) {
					t.Fatalf("Get(%q) = %+v, want %+v", want.Key, got, want)
				}
			}
			// Absent keys between every adjacent pair miss cleanly.
			for i := 0; i+1 < len(entries); i += 97 {
				probe := append(append([]byte(nil), entries[i].Key...), 0x00)
				if _, err := rd.Get(probe); err != ErrNotFound {
					t.Fatalf("Get(absent %q) err = %v, want ErrNotFound", probe, err)
				}
			}
			// Full scan: ordered, complete, identical.
			got := iterator.Drain(rd.Iter())
			if len(got) != len(entries) {
				t.Fatalf("scan yielded %d entries, want %d", len(got), len(entries))
			}
			for i, want := range entries {
				g := got[i]
				if !bytes.Equal(g.Key, want.Key) || g.Seq != want.Seq ||
					g.Tombstone != want.Tombstone || !bytes.Equal(g.Value, want.Value) {
					t.Fatalf("scan entry %d = %+v, want %+v", i, g, want)
				}
			}
			// Seeks land on the right entries.
			for i := 0; i < len(entries); i += 211 {
				it := iterFrom(rd, entries[i].Key)
				if !it.Valid() || !bytes.Equal(it.Entry().Key, entries[i].Key) {
					t.Fatalf("SeekGE(%q) landed at %q", entries[i].Key, it.Entry().Key)
				}
			}
			if it := iterFrom(rd, []byte("zzzz")); it.Valid() {
				t.Fatal("SeekGE past end should be invalid")
			}
		})
	}
}

// TestPartitionedIndexLazyLoad proves an open materializes only
// the top-level chunk index, and that lookups parse exactly the chunks
// they touch.
func TestPartitionedIndexLazyLoad(t *testing.T) {
	entries := prefixedEntries(2000)
	rd := buildTableOpts(t, entries, writerOptions{BlockSize: 128, IndexChunkSize: 8})
	if len(rd.chunks) < 4 {
		t.Fatalf("want a multi-chunk index, got %d chunks", len(rd.chunks))
	}
	loaded := func() int {
		n := 0
		for i := range rd.chunks {
			if rd.chunks[i].Load() != nil {
				n++
			}
		}
		return n
	}
	if loaded() != 0 {
		t.Fatalf("open materialized %d chunks, want 0", loaded())
	}
	// One point lookup touches exactly one chunk.
	mid := entries[len(entries)/2]
	got, err := rd.Get(mid.Key)
	if err != nil || !bytes.Equal(got.Value, mid.Value) {
		t.Fatalf("Get(%q) = %+v, %v", mid.Key, got, err)
	}
	if loaded() != 1 {
		t.Fatalf("point lookup parsed %d chunks, want 1", loaded())
	}
	// A full scan eventually touches all of them.
	if got := iterator.Drain(rd.Iter()); len(got) != len(entries) {
		t.Fatalf("scan yielded %d entries", len(got))
	}
	if loaded() != len(rd.chunks) {
		t.Fatalf("full scan parsed %d of %d chunks", loaded(), len(rd.chunks))
	}
}

// TestAllocIndexBytesPerBlock bounds what an open table's index holds in
// memory, outside every cache budget, at 24 bytes per data block: for the
// Reader a Writer hands over, and for one opened from the file with every
// chunk read. The table has the benchmark's shape — 20-byte keys of random
// ids, 100-byte values, default blocks and chunks — and over 10 000 blocks.
func TestAllocIndexBytesPerBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	keys := make([][]byte, 130_000)
	for i := range keys {
		keys[i] = fmt.Appendf(nil, "user%016x", rng.Uint64())
	}
	slices.SortFunc(keys, bytes.Compare)
	keys = slices.CompactFunc(keys, bytes.Equal)
	value := bytes.Repeat([]byte{'v'}, 100)
	path := filepath.Join(t.TempDir(), "t.sst")
	file, err := vfs.Default.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(file, len(keys))
	for i, k := range keys {
		if err := w.Add(iterator.Entry{Key: k, Value: value, Seq: uint64(i + 1)}); err != nil {
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
	blocks := 0
	for ci := range re.chunks {
		c, err := re.chunk(ci)
		if err != nil {
			t.Fatal(err)
		}
		blocks += c.len()
	}
	if blocks < 10_000 {
		t.Fatalf("the table has %d blocks, want at least 10 000", blocks)
	}
	for _, tc := range []struct {
		name string
		rd   *Reader
	}{{"handed over", born}, {"reopened", re}} {
		per := float64(residentIndexBytes(tc.rd)) / float64(blocks)
		if per > 24 {
			t.Errorf("%s: the index holds %.1f B per block, want at most 24", tc.name, per)
		}
		t.Logf("%s: %.1f B per block over %d blocks", tc.name, per, blocks)
	}
}

// residentIndexBytes is the live heap rd's index holds: the live heap less
// what is live once rd lets its index go. rd serves nothing afterwards.
func residentIndexBytes(rd *Reader) int64 {
	with := liveHeap()
	rd.top, rd.chunks = indexBlock{}, nil
	return with - liveHeap()
}

// liveHeap collects twice, so that pooled objects dropped at the first
// collection are gone too, and returns the bytes still allocated.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestRestartSearchWithinBlock packs many entries into one block so the
// restart binary search, not the block index, resolves the probes.
func TestRestartSearchWithinBlock(t *testing.T) {
	var entries []iterator.Entry
	for i := 0; i < 500; i++ {
		entries = append(entries, entry(fmt.Sprintf("key-%06d", i*2), fmt.Sprintf("v%d", i), uint64(i+1)))
	}
	rd := buildTableOpts(t, entries, writerOptions{BlockSize: 1 << 20})
	if n := len(rd.chunks); n != 1 {
		t.Fatalf("expected single chunk, got %d", n)
	}
	c, err := rd.chunk(0)
	if err != nil || c.len() != 1 {
		t.Fatalf("expected single block, got %v (err %v)", c, err)
	}
	for i, want := range entries {
		got, err := rd.Get(want.Key)
		if err != nil || !bytes.Equal(got.Value, want.Value) {
			t.Fatalf("entry %d: Get(%q) = %+v, %v", i, want.Key, got, err)
		}
		// The odd keys between entries are absent.
		absent := []byte(fmt.Sprintf("key-%06d", i*2+1))
		if _, err := rd.Get(absent); err != ErrNotFound {
			t.Fatalf("Get(absent %q) err = %v", absent, err)
		}
	}
	// Before the first restart key and after the last entry.
	if _, err := rd.Get([]byte("a")); err != ErrNotFound {
		t.Fatalf("Get(before-first) err = %v", err)
	}
	if _, err := rd.Get([]byte("z")); err != ErrNotFound {
		t.Fatalf("Get(after-last) err = %v", err)
	}
}

// TestFullBlocksFillOneArray: at the default block size, over entries shaped
// like the benchmark's (20-byte keys, 100-byte values), every data block's
// frame but the table's last fits BlockSize — the Writer cuts before the entry
// that would overflow it — and a cold Get reads its block into a cache array of
// exactly BlockSize bytes, not the next size class up.
func TestFullBlocksFillOneArray(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ids := make([]uint64, 10_000)
	for i := range ids {
		ids[i] = rng.Uint64()
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	entries := make([]iterator.Entry, len(ids))
	for i, id := range ids {
		value := make([]byte, 100)
		rng.Read(value)
		entries[i] = iterator.Entry{Key: []byte(fmt.Sprintf("user%016x", id)), Value: value, Seq: uint64(i + 1)}
	}
	rd := buildTableOpts(t, entries, writerOptions{})
	handles := allHandles(t, rd)
	for i, h := range handles[:len(handles)-1] {
		if frame := int(h.length) + 4; frame > BlockSize {
			t.Fatalf("block %d of %d: %d-byte frame, target %d", i, len(handles), frame, BlockSize)
		}
	}
	rd.SetBlockCache(cache.New(1 << 20))
	_, b, err := rd.GetEntry(entries[len(entries)/2].Key)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Release()
	if n := cap(b.Buf()); n != BlockSize {
		t.Fatalf("a cold Get's block sits in a %d-byte array, want %d", n, BlockSize)
	}
}

// TestV3PrefixCompressionShrinksKeys proves the restart format actually
// pays for itself on prefix-heavy keys: the key bytes the data blocks store
// are under a third of the keys they hold.
func TestV3PrefixCompressionShrinksKeys(t *testing.T) {
	rd := buildTableOpts(t, prefixedEntries(5000), writerOptions{})
	stored := 0
	for _, h := range allHandles(t, rd) {
		b, err := rd.readBlock(h)
		if err != nil {
			t.Fatal(err)
		}
		pb, err := parseV3Block(b.Data())
		if err != nil {
			t.Fatal(err)
		}
		var hd v3EntryHeader
		for off, prev := 0, 0; off < len(pb.data); off = hd.next {
			if err := decodeV3Header(&hd, pb.data, off, prev); err != nil {
				t.Fatal(err)
			}
			stored += hd.unshared
			prev = hd.shared + hd.unshared
		}
		b.Release()
	}
	if full := int(rd.f.keyBytes); stored*3 >= full {
		t.Errorf("blocks store %d key bytes for %d bytes of keys on prefix-heavy keys", stored, full)
	}
}

// TestEncodeBlockAllocs is the regression guard for the seed's
// double-buffered block framing: framing a raw block into a warmed reusable
// buffer must not allocate at all.
func TestEncodeBlockAllocs(t *testing.T) {
	var bb blockBuilder
	for i := 0; i < 100; i++ {
		bb.add(entry(fmt.Sprintf("key-%06d", i), "some-value-bytes", uint64(i+1)))
	}
	body := bb.finish()
	frameBuf := make([]byte, 0, 2*len(body)+16)
	allocs := testing.AllocsPerRun(100, func() {
		frameBuf = appendBlock(frameBuf[:0], body)
	})
	if allocs != 0 {
		t.Errorf("block framing allocates %.1f times per block, want 0", allocs)
	}
}

// TestV3CorruptBlocks hand-crafts structurally broken v3 blocks inside
// otherwise valid frames: every corruption must surface as ErrCorrupt from
// parse, search or iteration — never a panic.
func TestV3CorruptBlocks(t *testing.T) {
	var bb blockBuilder
	for i := 0; i < 64; i++ {
		bb.add(entry(fmt.Sprintf("key-%06d", i), "v", uint64(i+1)))
	}
	good := append([]byte(nil), bb.finish()...)

	mutate := func(name string, fn func(b []byte) []byte) {
		t.Run(name, func(t *testing.T) {
			bad := fn(append([]byte(nil), good...))
			pb, err := parseV3Block(bad)
			if err == nil {
				var hd v3EntryHeader
				if serr := searchV3Block(pb, []byte("key-000031"), &hd); serr != nil && serr != ErrNotFound && serr != ErrCorrupt {
					t.Fatalf("search err = %v", serr)
				}
				it := &v3BlockIter{pb: pb}
				var e iterator.Entry
				for {
					ok, ierr := it.next(&e)
					if ierr != nil || !ok {
						break
					}
				}
				return
			}
			if err != ErrCorrupt {
				t.Fatalf("parse err = %v, want ErrCorrupt", err)
			}
		})
	}

	le32 := func(b []byte, off int, v uint32) []byte {
		b[off] = byte(v)
		b[off+1] = byte(v >> 8)
		b[off+2] = byte(v >> 16)
		b[off+3] = byte(v >> 24)
		return b
	}
	mutate("restart count garbage", func(b []byte) []byte {
		return le32(b, len(b)-4, 0xffffffff)
	})
	mutate("restart count off by one", func(b []byte) []byte {
		return le32(b, len(b)-4, uint32((len(b)-4)/4+1))
	})
	mutate("truncated trailer", func(b []byte) []byte { return b[:3] })
	mutate("out of order restarts", func(b []byte) []byte {
		// Swap the first two restart offsets.
		n := int(uint32(b[len(b)-4]) | uint32(b[len(b)-3])<<8 | uint32(b[len(b)-2])<<16 | uint32(b[len(b)-1])<<24)
		if n < 2 {
			t.Skip("need 2 restarts")
		}
		start := len(b) - 4 - 4*n
		for i := 0; i < 4; i++ {
			b[start+i], b[start+4+i] = b[start+4+i], b[start+i]
		}
		return b
	})
	mutate("restart past data", func(b []byte) []byte {
		n := int(uint32(b[len(b)-4]) | uint32(b[len(b)-3])<<8 | uint32(b[len(b)-2])<<16 | uint32(b[len(b)-1])<<24)
		start := len(b) - 4 - 4*n
		return le32(b, start+4*(n-1), uint32(len(b)))
	})
	mutate("nonzero shared at restart", func(b []byte) []byte {
		b[0] = 9 // first entry's sharedLen must be 0
		return b
	})

	// A frame whose codec byte is 2, which the retired Fast codec wrote, is
	// corrupt however sound its checksum: the table opens, and every read of
	// that block fails.
	t.Run("retired codec 2", func(t *testing.T) {
		var entries []iterator.Entry
		for i := 0; i < 64; i++ {
			entries = append(entries, entry(fmt.Sprintf("key-%06d", i), "v", uint64(i+1)))
		}
		var buf bytes.Buffer
		w := NewWriter(&buf, len(entries))
		for _, e := range entries {
			if err := w.Add(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		data := withBlockCodec(t, buf.Bytes(), 2)
		rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		if _, err := rd.Get(entries[0].Key); err != ErrCorrupt {
			t.Fatalf("Get err = %v, want ErrCorrupt", err)
		}
		it := rd.Iter()
		for it.Valid() {
			it.Next()
		}
		if err := it.Err(); err != ErrCorrupt {
			t.Fatalf("scan err = %v, want ErrCorrupt", err)
		}
		it.Close()
	})

	// A corrupt-shared entry mid-block (shared > previous key length) must
	// fail during the walk, not mis-decode.
	t.Run("shared exceeds prev key", func(t *testing.T) {
		var small blockBuilder
		small.add(entry("ab", "1", 1))
		small.add(entry("ac", "2", 2))
		payload := append([]byte(nil), small.finish()...)
		// Entry 2 starts after entry 1; its sharedLen byte is the first of
		// the second entry. Find it: entry 1 is at offset 0; decode sizes:
		// shared(1)+unshared(1)+seq(1)+flags(1)+key(2)+vlen(1)+val(1) = 8.
		payload[8] = 30 // sharedLen 30 > len("ab")
		pb, err := parseV3Block(payload)
		if err != nil {
			t.Fatalf("parse: %v", err)
		}
		var hd v3EntryHeader
		if err := searchV3Block(pb, []byte("ac"), &hd); err != ErrCorrupt {
			t.Fatalf("search err = %v, want ErrCorrupt", err)
		}
		it := &v3BlockIter{pb: pb}
		var e iterator.Entry
		for {
			ok, err := it.next(&e)
			if err == ErrCorrupt {
				return
			}
			if err != nil || !ok {
				t.Fatalf("iteration ended without ErrCorrupt (err=%v)", err)
			}
		}
	})
}

// TestKeyArenaSizedToWork pins the arena's sizing: a chunk fits the block
// it serves (up to maxArenaChunk for a block of large values), a block whose
// keys outgrow it gets one twice the size, an oversized key a chunk of its
// own, bytes handed out are never handed out again before empty, and empty
// keeps the chunk, so the next block allocates nothing.
func TestKeyArenaSizedToWork(t *testing.T) {
	var a keyArena
	first := a.alloc(20, 1000)
	if cap(a.buf) != 1000 {
		t.Errorf("first chunk for a 1000-byte block = %d bytes, want 1000", cap(a.buf))
	}
	copy(first, "aaaaaaaaaaaaaaaaaaaa")
	var chunks []int
	last := cap(a.buf)
	for i := 0; i < 200; i++ {
		copy(a.alloc(20, 1000), "bbbbbbbbbbbbbbbbbbbb")
		if cap(a.buf) != last {
			last = cap(a.buf)
			chunks = append(chunks, last)
		}
	}
	if want := "[2000 4000]"; fmt.Sprint(chunks) != want {
		t.Errorf("chunk sizes after the first = %v, want %s", chunks, want)
	}
	if string(first) != "aaaaaaaaaaaaaaaaaaaa" {
		t.Errorf("an earlier key was overwritten: %q", first)
	}
	a.empty()
	if allocs := testing.AllocsPerRun(10, func() {
		for i := 0; i < 150; i++ {
			a.alloc(20, 1000)
		}
		a.empty()
	}); allocs != 0 || cap(a.buf) != 4000 {
		t.Errorf("a block's keys after empty cost %v chunks (chunk %d bytes), want 0", allocs, cap(a.buf))
	}
	if big := a.alloc(3*maxArenaChunk, 1000); len(big) != 3*maxArenaChunk {
		t.Errorf("oversized alloc returned %d bytes", len(big))
	}
	var b keyArena
	b.alloc(20, 1<<20)
	if cap(b.buf) != maxArenaChunk {
		t.Errorf("first chunk for a 1 MiB block = %d, want the %d cap", cap(b.buf), maxArenaChunk)
	}
}
