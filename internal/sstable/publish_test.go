package sstable

import (
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/cache"
	"repro/internal/iterator"
	"repro/internal/keyhash"
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

// publishedTable writes entries through a Writer publishing to c and takes
// the Reader it hands over, reads counted.
func publishedTable(t *testing.T, c Cache, entries []iterator.Entry, opts writerOptions) (*Reader, *countingReaderAt) {
	t.Helper()
	var buf bytes.Buffer
	w := newWriterOpts(&buf, len(entries), opts)
	w.PublishTo(c)
	for _, e := range entries {
		if err := w.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	src := &countingReaderAt{r: bytes.NewReader(buf.Bytes())}
	return w.Reader(src), src
}

// allHandles lists every data-block handle of rd in file order.
func allHandles(t *testing.T, rd *Reader) []blockHandle {
	t.Helper()
	var out []blockHandle
	for ci := range rd.chunks {
		c, err := rd.chunk(ci)
		if err != nil {
			t.Fatal(err)
		}
		for bi := range c.len() {
			out = append(out, c.handle(bi))
		}
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

// TestStressWriterPublishesWhatReadersCache: the block a Writer publishes is
// byte for byte the payload readBlock produces from the file for the same
// handle — the decoded body, not the stored frame — every data block is
// published, and the table then serves a whole scan and every point read
// without a single ReadAt.
func TestStressWriterPublishesWhatReadersCache(t *testing.T) {
	t.Run("v3/raw", func(t *testing.T) {
		entries := compressibleEntries("key", 800)
		c := cache.NewSharded(8<<20, 0)
		rd, src := publishedTable(t, c, entries, writerOptions{BlockSize: 512})
		handles := allHandles(t, rd)
		if len(handles) < 50 || c.Len() != len(handles) {
			t.Fatalf("%d data blocks, %d published", len(handles), c.Len())
		}
		plain, err := NewReader(src, rd.size) // no cache: reads every block from the file
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range handles {
			pub, ok := c.Peek(cache.Key{Table: rd.id, Offset: h.offset})
			if !ok {
				t.Fatalf("block at %d not published", h.offset)
			}
			fromFile, err := plain.readBlock(h)
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

// residency reports how many of rd's data blocks are resident in c and how
// many payload bytes those hold, without disturbing c.
func residency(t *testing.T, c Cache, rd *Reader) (blocks, bytes int) {
	t.Helper()
	for _, h := range allHandles(t, rd) {
		if b, ok := c.Peek(cache.Key{Table: rd.id, Offset: h.offset}); ok {
			blocks++
			bytes += len(b.Data())
			b.Release()
		}
	}
	return blocks, bytes
}

// warm reads rd end to end the way a user scan does, filling its cache.
func warm(t *testing.T, rd *Reader) {
	t.Helper()
	it := rd.Iter()
	for it.Valid() {
		it.Next()
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	it.Close()
}

// mergePublished merges inputs into a table published to c and takes its
// Reader.
func mergePublished(t *testing.T, c Cache, opts writerOptions, inputs ...*Reader) *Reader {
	t.Helper()
	var buf bytes.Buffer
	w := newWriterOpts(&buf, MergeEntries(inputs...), opts)
	w.PublishTo(c)
	if _, err := MergeTo(w, nil, inputs...); err != nil {
		t.Fatal(err)
	}
	return w.Reader(bytes.NewReader(buf.Bytes()))
}

// stridedEntries is entries lo, lo+stride, … below n of one interleaved key
// space: tables built from different lo share every key range and no key.
func stridedEntries(lo, stride, n int) []iterator.Entry {
	var entries []iterator.Entry
	for i := lo; i < n; i += stride {
		entries = append(entries, entry(fmt.Sprintf("key-%06d", i), fmt.Sprintf("value-%040d", i%9), uint64(i+1)))
	}
	return entries
}

// TestStressMergeCarriesResidency: a merge reads its inputs around the cache
// — no fill, no hit or miss counted — and with room in the cache its output
// is resident whole: the blocks merged from resident input because what was
// hot stays hot, the blocks merged from the cold input because they displace
// nothing (TestStressColdOutputAdmittedOnlyAgainstSpentInput takes the room
// away).
func TestStressMergeCarriesResidency(t *testing.T) {
	c := cache.NewSharded(8<<20, 0)
	opts := writerOptions{BlockSize: 512}
	hot, _ := publishedTable(t, c, compressibleEntries("a", 600), opts)
	cold, coldSrc := publishedTable(t, c, compressibleEntries("b", 600), opts)
	c.DropTable(cold.id)
	hotBlocks := len(allHandles(t, hot))
	if c.Len() != hotBlocks {
		t.Fatalf("%d blocks resident, want the hot table's %d", c.Len(), hotBlocks)
	}
	hits0, misses0, _ := c.Stats()

	coldSrc.reads = 0
	out := mergePublished(t, c, opts, cold, hot)
	if out.EntryCount() != 1200 || coldSrc.reads == 0 {
		t.Fatalf("merged %d entries with %d reads of the cold input", out.EntryCount(), coldSrc.reads)
	}
	if hits, misses, _ := c.Stats(); hits != hits0 || misses != misses0 {
		t.Fatalf("merge moved the counters: %d hits, %d misses", hits-hits0, misses-misses0)
	}
	if n, _ := residency(t, c, cold); n != 0 {
		t.Fatalf("merge filled the cache with %d blocks of its cold input", n)
	}
	if n, _ := residency(t, c, hot); n != hotBlocks {
		t.Fatalf("%d of the hot input's %d blocks resident after a merge into free room", n, hotBlocks)
	}
	outBlocks := len(allHandles(t, out))
	if n, _ := residency(t, c, out); n != outBlocks || outBlocks < 2*hotBlocks-2 {
		t.Fatalf("%d of %d output blocks resident; inputs had %d each", n, outBlocks, hotBlocks)
	}
}

// demoteRecorder is a cache that remembers every block handed to Demote.
type demoteRecorder struct {
	*cache.LRU
	demoted []*cache.Block
}

func (c *demoteRecorder) Demote(b *cache.Block) {
	c.demoted = append(c.demoted, b)
	c.LRU.Demote(b)
}

// TestStressMergeSpendsItsInputs: a merge hands every resident input block it
// takes up to Demote, once, and nobody else does — not a planning scan
// (a bare ScanIter), which leaves the cache exactly as it found it, and not
// a user's Iter. None of the three maintenance passes counts a hit or a
// miss. What demotion buys shows when the cache then has to make room for as
// many bytes as the inputs hold: the inputs go, all of them and nothing
// else, although a bystander table was least recently used.
func TestStressMergeSpendsItsInputs(t *testing.T) {
	const capacity = 1 << 20
	c := &demoteRecorder{LRU: cache.New(capacity)}
	opts := writerOptions{BlockSize: 512}
	bystander, _ := publishedTable(t, c, compressibleEntries("s", 600), opts)
	a, aSrc := publishedTable(t, c, stridedEntries(0, 2, 1200), opts)
	b, bSrc := publishedTable(t, c, stridedEntries(1, 2, 1200), opts)
	aBlocks, aBytes := residency(t, c, a)
	bBlocks, bBytes := residency(t, c, b)
	sBlocks, _ := residency(t, c, bystander)
	if aBlocks < 50 || c.Len() != aBlocks+bBlocks+sBlocks {
		t.Fatalf("%d blocks resident; tables have %d, %d and %d", c.Len(), aBlocks, bBlocks, sBlocks)
	}
	hits0, misses0, _ := c.Stats()

	scan := a.ScanIter()
	for scan.Valid() {
		scan.Next()
	}
	scan.Close()
	if hits, misses, _ := c.Stats(); len(c.demoted) != 0 || hits != hits0 || misses != misses0 {
		t.Fatalf("a planning scan demoted %d blocks, counted %d hits and %d misses", len(c.demoted), hits-hits0, misses-misses0)
	}
	warm(t, a)
	if len(c.demoted) != 0 {
		t.Fatalf("a user's iterator demoted %d blocks", len(c.demoted))
	}
	hits0, misses0, _ = c.Stats()
	aSrc.reads, bSrc.reads = 0, 0

	out := mergePublished(t, c, opts, a, b)
	if hits, misses, _ := c.Stats(); hits != hits0 || misses != misses0 || aSrc.reads+bSrc.reads != 0 {
		t.Fatalf("merge of resident inputs: %d hits, %d misses, %d reads", hits-hits0, misses-misses0, aSrc.reads+bSrc.reads)
	}
	once := map[*cache.Block]bool{}
	for _, blk := range c.demoted {
		if once[blk] {
			t.Fatal("a block was demoted twice")
		}
		once[blk] = true
	}
	if len(once) != aBlocks+bBlocks {
		t.Fatalf("merge demoted %d blocks; its inputs have %d", len(once), aBlocks+bBlocks)
	}
	outBlocks := len(allHandles(t, out))
	if n, _ := residency(t, c, out); n != outBlocks {
		t.Fatalf("%d of %d output blocks resident", n, outBlocks)
	}

	// Fill the free room, then as many bytes again as the inputs occupy.
	_, _, used := c.Stats()
	filler := make([]byte, 4096)
	for need, i := capacity-used+aBytes+bBytes, 0; need > 0; i++ {
		n := min(need, len(filler))
		c.Publish(cache.Key{Table: 1 << 40, Offset: uint64(i)}, filler[:n], false)
		need -= n
	}
	na, _ := residency(t, c, a)
	nb, _ := residency(t, c, b)
	ns, _ := residency(t, c, bystander)
	no, _ := residency(t, c, out)
	if na != 0 || nb != 0 || ns != sBlocks || no != outBlocks {
		t.Fatalf("after making room for the inputs' bytes: inputs %d+%d blocks resident (want 0), bystander %d of %d, output %d of %d",
			na, nb, ns, sBlocks, no, outBlocks)
	}
}

// TestStressColdOutputAdmittedOnlyAgainstSpentInput: an output block merged
// from input that was not resident may take the place of a block the merge
// has spent, and of nothing live. The cache is exactly full. Half-cold — one
// input resident, the other not, their keys interleaved so every output block
// holds cold entries: the bystander table keeps every block, the resident
// input is never read from the file (nothing evicted it before the merge
// reached it), and part of the output is resident in its place. Fully cold:
// nothing is spent, so nothing is published and nothing evicted.
func TestStressColdOutputAdmittedOnlyAgainstSpentInput(t *testing.T) {
	opts := writerOptions{BlockSize: 512}
	sizing := cache.New(64 << 20)
	bystander, _ := publishedTable(t, sizing, compressibleEntries("s", 600), opts)
	hot, hotSrc := publishedTable(t, sizing, stridedEntries(0, 2, 1200), opts)
	cold, _ := publishedTable(t, sizing, stridedEntries(1, 2, 1200), opts)
	sBlocks, sBytes := residency(t, sizing, bystander)
	hotBlocks, hotBytes := residency(t, sizing, hot)

	for _, tc := range []struct {
		name     string
		resident []*Reader
	}{
		{"half-cold", []*Reader{bystander, hot}},
		{"cold", []*Reader{bystander}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			capacity := sBytes
			if len(tc.resident) == 2 {
				capacity += hotBytes
			}
			c := cache.New(capacity)
			for _, rd := range []*Reader{bystander, hot, cold} {
				rd.SetBlockCache(c)
			}
			for _, rd := range tc.resident { // the bystander first: least recently used
				warm(t, rd)
			}
			hits0, misses0, used := c.Stats()
			if used != capacity {
				t.Fatalf("cache holds %d of %d bytes, want it full", used, capacity)
			}
			before := c.Len()
			hotSrc.reads = 0

			out := mergePublished(t, c, opts, hot, cold)
			if hits, misses, _ := c.Stats(); hits != hits0 || misses != misses0 {
				t.Fatalf("merge moved the counters: %d hits, %d misses", hits-hits0, misses-misses0)
			}
			if n, _ := residency(t, c, bystander); n != sBlocks {
				t.Fatalf("the merge evicted %d of the bystander's %d blocks", sBlocks-n, sBlocks)
			}
			published, _ := residency(t, c, out)
			if len(tc.resident) == 1 {
				if published != 0 || c.Len() != before || hotSrc.reads == 0 {
					t.Fatalf("cold merge: %d output blocks published, %d blocks resident (were %d)", published, c.Len(), before)
				}
				return
			}
			if hotSrc.reads != 0 {
				t.Fatalf("the resident input was read from the file %d times: evicted before the merge reached it", hotSrc.reads)
			}
			left, _ := residency(t, c, hot)
			if published < hotBlocks/2 || published > hotBlocks || left > hotBlocks-published {
				t.Fatalf("%d output blocks published over %d input blocks, %d of them still resident", published, hotBlocks, left)
			}
		})
	}
}

// TestStressHoldsNewerIgnoresResidency: the purge probe's answer is a
// function of the table alone. A born table (every chunk parsed, every block
// resident), the same table with its blocks dropped from the cache, and the
// table reopened with no chunk parsed each prove every key newer than any
// lower sequence number — and not newer than its own, nor anything about a
// key it lacks. No pass moves the cache's hits, misses or resident set or
// counts a filter outcome, and no probe the filter rejects reads the table.
func TestStressHoldsNewerIgnoresResidency(t *testing.T) {
	entries := compressibleEntries("key", 800)
	c := cache.New(8 << 20)
	born, src := publishedTable(t, c, entries, writerOptions{BlockSize: 512, IndexChunkSize: 8})
	var fm FilterMetrics
	absent := []string{"kex", "kez"} // below, above
	for i := range entries {
		absent = append(absent, fmt.Sprintf("key-%06dx", i)) // between keys
	}
	// pass probes rd and returns the ReadAt calls it took.
	pass := func(when string, rd *Reader) int {
		t.Helper()
		rd.SetFilterMetrics(&fm)
		hits, misses, used := c.Stats()
		resident, start := c.Len(), src.reads
		holds := func(key []byte, seq uint64) bool {
			at := src.reads
			held := rd.HoldsNewer(key, keyhash.Of(key), seq)
			if src.reads != at && !rd.filter.MayContainHash(keyhash.Of(key)) {
				t.Fatalf("%s: %q, which the filter rejects, read the table", when, key)
			}
			return held
		}
		for _, e := range entries {
			if !holds(e.Key, e.Seq-1) {
				t.Fatalf("%s: %s not proved newer than seq %d", when, e.Key, e.Seq-1)
			}
			if holds(e.Key, e.Seq) {
				t.Fatalf("%s: %s at seq %d proved newer than itself", when, e.Key, e.Seq)
			}
		}
		for _, key := range absent {
			if holds([]byte(key), 0) {
				t.Fatalf("%s: absent key %q proved present", when, key)
			}
		}
		if h, m, u := c.Stats(); h != hits || m != misses || u != used || c.Len() != resident {
			t.Fatalf("%s: hits %d→%d, misses %d→%d, %d→%d B in %d→%d blocks", when, hits, h, misses, m, used, u, resident, c.Len())
		}
		if fm.Negatives.Load() != 0 || fm.FalsePositives.Load() != 0 {
			t.Fatalf("%s: filter counted %d negatives, %d false positives", when, fm.Negatives.Load(), fm.FalsePositives.Load())
		}
		return src.reads - start
	}
	if reads := pass("born table", born); reads != 0 {
		t.Fatalf("born table: %d reads with every block resident", reads)
	}
	c.DropTable(born.id)
	if reads := pass("blocks dropped", born); reads == 0 {
		t.Fatal("blocks dropped: every proof made without a read")
	}
	opened, err := NewReader(src, born.size)
	if err != nil {
		t.Fatal(err)
	}
	opened.SetBlockCache(c)
	if reads := pass("reopened", opened); reads == 0 {
		t.Fatal("reopened: every proof made without a read")
	}
}
