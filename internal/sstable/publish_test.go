package sstable

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/cache"
	"repro/internal/iterator"
)

// countingReaderAt counts the ReadAt calls that reach the table's bytes.
type countingReaderAt struct {
	r     io.ReaderAt
	reads int
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	c.reads++
	return c.r.ReadAt(p, off)
}

// publishedTable writes entries through a Writer publishing to c and opens
// the result under the id it published with, reads counted.
func publishedTable(t *testing.T, c Cache, entries []iterator.Entry, opts WriterOptions) (*Reader, *countingReaderAt) {
	t.Helper()
	var buf bytes.Buffer
	id := ReserveID()
	w := NewWriterOpts(&buf, len(entries), opts)
	w.PublishTo(c, id)
	for _, e := range entries {
		if err := w.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	src := &countingReaderAt{r: bytes.NewReader(buf.Bytes())}
	rd, err := newReader(src, int64(buf.Len()), nil, id)
	if err != nil {
		t.Fatal(err)
	}
	rd.SetBlockCache(c)
	return rd, src
}

// allHandles lists every data-block handle of rd in file order.
func allHandles(t *testing.T, rd *Reader) []blockHandle {
	t.Helper()
	var out []blockHandle
	for ci := 0; ci < rd.numChunks(); ci++ {
		hs, err := rd.chunkHandles(ci)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, hs...)
	}
	return out
}

func compressibleEntries(prefix string, n int) []iterator.Entry {
	entries := make([]iterator.Entry, n)
	for i := range entries {
		entries[i] = entry(fmt.Sprintf("%s-%06d", prefix, i), fmt.Sprintf("value-%040d", i%9), uint64(i+1))
	}
	return entries
}

// TestWriterPublishesWhatReadersCache: whatever the format and codec, the
// block a Writer publishes is byte for byte the payload readBlock produces
// from the file for the same handle — the decoded body, not the stored
// frame — every data block is published, and the table then serves a whole
// scan and every point read without a single ReadAt.
func TestWriterPublishesWhatReadersCache(t *testing.T) {
	for _, tc := range []struct {
		name       string
		opts       WriterOptions
		compressed bool
	}{
		{"v3/raw", WriterOptions{}, false},
		{"v3/fast", WriterOptions{Compression: Fast}, true},
		{"v3/flate", WriterOptions{Compression: Flate}, true},
		{"v2/raw", WriterOptions{FormatVersion: FormatV2}, false},
		{"v2/flate", WriterOptions{FormatVersion: FormatV2, Compression: Flate}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.opts.BlockSize = 512
			entries := compressibleEntries("key", 800)
			c := cache.NewSharded(8<<20, 0)
			rd, src := publishedTable(t, c, entries, tc.opts)
			handles := allHandles(t, rd)
			if len(handles) < 50 || c.Len() != len(handles) {
				t.Fatalf("%d data blocks, %d published", len(handles), c.Len())
			}
			var codec [1]byte
			if _, err := src.ReadAt(codec[:], int64(handles[0].offset)); err != nil {
				t.Fatal(err)
			}
			if (codec[0] != codecRaw) != tc.compressed {
				t.Fatalf("first block stored with codec %d", codec[0])
			}
			for _, h := range handles {
				key := cache.Key{Table: rd.id, Offset: h.offset}
				pub, ok := c.Peek(key)
				if !ok {
					t.Fatalf("block at %d not published", h.offset)
				}
				fromFile, err := rd.loadBlock(cache.Uncached, key, h)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(pub.Data(), fromFile.Data()) {
					t.Fatalf("block at %d: published %d B differ from the %d B read back", h.offset, len(pub.Data()), len(fromFile.Data()))
				}
				pub.Release()
				fromFile.Release()
			}

			hits0, misses0, _ := c.Stats()
			src.reads = 0
			it := rd.Iter()
			for i := 0; it.Valid(); i++ {
				if !sameEntry(it.Entry(), entries[i]) {
					t.Fatalf("entry %d = %q", i, it.Entry().Key)
				}
				it.Next()
			}
			it.Close()
			for _, e := range entries {
				if got, err := rd.Get(e.Key); err != nil || !bytes.Equal(got.Value, e.Value) {
					t.Fatalf("Get(%q) = %q, %v", e.Key, got.Value, err)
				}
			}
			hits, misses, _ := c.Stats()
			if misses != misses0 || hits == hits0 || src.reads != 0 {
				t.Fatalf("reading a published table: %d misses, %d ReadAt", misses-misses0, src.reads)
			}
		})
	}
}

// TestMergeCarriesResidency: a merge reads its inputs around the cache —
// no fill, no promotion, no hit or miss counted — and its output is
// resident exactly where its inputs were. Two inputs over disjoint key
// ranges, one resident and one not, give an output whose blocks from the
// first range are published and whose blocks from the second are not.
func TestMergeCarriesResidency(t *testing.T) {
	c := cache.NewSharded(8<<20, 0)
	opts := WriterOptions{BlockSize: 512}
	hotEntries, coldEntries := compressibleEntries("a", 600), compressibleEntries("b", 600)
	hot, _ := publishedTable(t, c, hotEntries, opts)
	cold, coldSrc := publishedTable(t, c, coldEntries, opts)
	c.DropTable(cold.id)
	hotBlocks := len(allHandles(t, hot))
	if c.Len() != hotBlocks {
		t.Fatalf("%d blocks resident, want the hot table's %d", c.Len(), hotBlocks)
	}
	hits0, misses0, _ := c.Stats()

	var buf bytes.Buffer
	id := ReserveID()
	w := NewWriterOpts(&buf, MergeEntries(cold, hot), opts)
	w.PublishTo(c, id)
	coldSrc.reads = 0
	stats, err := MergeTo(w, false, cold, hot)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EntriesOut != 1200 || coldSrc.reads == 0 {
		t.Fatalf("merged %d entries with %d reads of the cold input", stats.EntriesOut, coldSrc.reads)
	}
	if hits, misses, _ := c.Stats(); hits != hits0 || misses != misses0 {
		t.Fatalf("merge moved the counters: %d hits, %d misses", hits-hits0, misses-misses0)
	}
	for _, h := range allHandles(t, cold) {
		if b, ok := c.Peek(cache.Key{Table: cold.id, Offset: h.offset}); ok {
			b.Release()
			t.Fatalf("merge filled the cache with its cold input's block at %d", h.offset)
		}
	}

	out, err := newReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()), nil, id)
	if err != nil {
		t.Fatal(err)
	}
	var published, unpublished int
	for _, h := range allHandles(t, out) {
		b, ok := c.Peek(cache.Key{Table: id, Offset: h.offset})
		if ok {
			b.Release()
			published++
		} else {
			unpublished++
		}
		// "a-…" keys sort first, so the hot range is a prefix of the output;
		// the one block that may straddle the ranges holds cold entries.
		switch inHot := h.firstKey[0] == 'a'; {
		case inHot && !ok && unpublished > 1:
			t.Fatalf("output block %q merged from resident input was not published", h.firstKey)
		case !inHot && ok:
			t.Fatalf("output block %q merged from non-resident input was published", h.firstKey)
		}
	}
	if published < hotBlocks-1 || unpublished < hotBlocks-1 {
		t.Fatalf("%d output blocks published, %d not; inputs had %d each", published, unpublished, hotBlocks)
	}
}
