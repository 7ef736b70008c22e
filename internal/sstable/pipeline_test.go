package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/iterator"
)

// Tests for the span reads of Reader.ScanIter: a span of blocks fetched at a
// time — resident ones where they lie, the rest in runs of one ReadAt each —
// must be invisible in what is read: the same entries as Iter, errors at the
// same place, and no pin left behind when the consumer stops early.

func drainClone(t *testing.T, it *Iter) []iterator.Entry {
	t.Helper()
	defer it.Close()
	var out []iterator.Entry
	for ; it.Valid(); it.Next() {
		out = append(out, cloneEntry(it.Entry()))
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func checkSameEntries(t *testing.T, what string, got, want []iterator.Entry) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d entries, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !sameEntry(got[i], want[i]) {
			t.Fatalf("%s: entry %d = %q/%q@%d, want %q/%q@%d", what, i,
				got[i].Key, got[i].Value, got[i].Seq, want[i].Key, want[i].Value, want[i].Seq)
		}
	}
}

// randomEntries is a sorted entry list with value sizes from empty to
// several blocks, so blocks, runs and spans of every shape occur.
func randomEntries(rng *rand.Rand, n int) []iterator.Entry {
	entries := make([]iterator.Entry, n)
	for i := range entries {
		e := iterator.Entry{Key: []byte(fmt.Sprintf("key-%08d", i)), Seq: uint64(rng.Intn(1 << 20))}
		switch r := rng.Intn(100); {
		case r < 5:
			e.Tombstone = true
		case r < 8:
			e.Value = bytes.Repeat([]byte{byte(i)}, 300+rng.Intn(2500))
		default:
			e.Value = bytes.Repeat([]byte{byte(i)}, rng.Intn(60))
		}
		entries[i] = e
	}
	return entries
}

// TestStressScanIterMatchesIter: the span-reading iterator yields exactly
// what Iter yields, over the committed fixture and over random tables, with
// no cache, with a cache holding some of the blocks (so resident blocks and
// read runs alternate inside a span), and with every block resident.
func TestStressScanIterMatchesIter(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "v3.sst"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatal(err)
	}
	want := drainClone(t, golden.Iter())
	checkSameEntries(t, "golden", drainClone(t, golden.ScanIter()), want)
	checkSameEntries(t, "golden against the entry list", want, goldenEntries())

	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 12; round++ {
		entries := randomEntries(rng, 200+rng.Intn(3000))
		opts := WriterOptions{
			BlockSize:      []int{128, 512, 4096}[round%3],
			IndexChunkSize: []int{3, 8, 256}[round%3],
		}
		rd := buildTableOpts(t, entries, opts)
		for _, fill := range []string{"uncached", "partly resident", "resident"} {
			c := cache.New(64 << 20)
			switch fill {
			case "uncached":
				rd.SetBlockCache(nil)
			case "partly resident":
				rd.SetBlockCache(c)
				for i := 0; i < len(entries); i += 1 + rng.Intn(40) {
					if _, err := rd.Get(entries[i].Key); err != nil {
						t.Fatal(err)
					}
				}
			case "resident":
				rd.SetBlockCache(c)
				drainClone(t, rd.Iter())
			}
			hits, misses, used := c.Stats()
			got := drainClone(t, rd.ScanIter())
			checkSameEntries(t, fmt.Sprintf("round %d (%+v), %s", round, opts, fill), got, entries)
			if h, m, u := c.Stats(); h != hits || m != misses || u != used {
				t.Fatalf("round %d, %s: the scan moved the cache from %d/%d/%d to %d/%d/%d", round, fill, hits, misses, used, h, m, u)
			}
		}
	}
}

// failingAt fails every ReadAt that touches [lo, hi).
type failingAt struct {
	io.ReaderAt
	lo, hi int64
}

var errInjectedRead = errors.New("injected read error")

func (f *failingAt) ReadAt(p []byte, off int64) (int, error) {
	if off < f.hi && off+int64(len(p)) > f.lo {
		return 0, errInjectedRead
	}
	return f.ReaderAt.ReadAt(p, off)
}

// TestStressScanIterErrorInOrder: a read error on block j reaches the
// consumer of a ScanIter after exactly the entries of the blocks before j,
// although the iterator met it while reading a run of several blocks, and so
// does a checksum failure.
func TestStressScanIterErrorInOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	entries := randomEntries(rng, 1500)
	var buf bytes.Buffer
	w := NewWriterOpts(&buf, len(entries), WriterOptions{BlockSize: 256, IndexChunkSize: 16})
	for _, e := range entries {
		if err := w.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	blocks := w.index
	// How many entries lie before block j: the position of the first entry
	// at or above its index key, which may be shorter than that entry's key.
	before := func(j int) int {
		return sort.Search(len(entries), func(i int) bool { return bytes.Compare(entries[i].Key, blocks[j].key) >= 0 })
	}
	for _, j := range []int{0, 1, spanBlocks - 1, spanBlocks, spanBlocks + 3, len(blocks) / 2, len(blocks) - 1} {
		// A read error.
		fr := &failingAt{ReaderAt: bytes.NewReader(buf.Bytes()), lo: int64(blocks[j].offset), hi: int64(blocks[j].offset) + 1}
		rd, err := NewReader(fr, int64(buf.Len()))
		if err != nil {
			t.Fatal(err)
		}
		it := rd.ScanIter()
		n := 0
		for ; it.Valid(); it.Next() {
			if !sameEntry(it.Entry(), entries[n]) {
				t.Fatalf("block %d unreadable: entry %d = %q", j, n, it.Entry().Key)
			}
			n++
		}
		if !errors.Is(it.Err(), errInjectedRead) || n != before(j) {
			t.Fatalf("block %d unreadable: %d entries then %v, want %d then the injected error", j, n, it.Err(), before(j))
		}
		it.Close()

		// A flipped bit.
		damaged := append([]byte(nil), buf.Bytes()...)
		damaged[blocks[j].offset+2] ^= 0x40
		rd, err = NewReader(bytes.NewReader(damaged), int64(len(damaged)))
		if err != nil {
			t.Fatal(err)
		}
		it = rd.ScanIter()
		for n = 0; it.Valid(); it.Next() {
			n++
		}
		if !errors.Is(it.Err(), ErrCorrupt) || n != before(j) {
			t.Fatalf("block %d damaged: %d entries then %v, want %d then ErrCorrupt", j, n, it.Err(), before(j))
		}
		it.Close()
	}
}

// peekRecorder is a cache that remembers every block it hands out by Peek.
type peekRecorder struct {
	*cache.LRU
	mu     sync.Mutex
	peeked []*cache.Block
}

func (c *peekRecorder) Peek(k cache.Key) (*cache.Block, bool) {
	b, ok := c.LRU.Peek(k)
	if ok {
		c.mu.Lock()
		c.peeked = append(c.peeked, b)
		c.mu.Unlock()
	}
	return b, ok
}

// released reports whether nothing holds b any more: one more Release then
// panics instead of dropping someone's pin.
func released(b *cache.Block) (yes bool) {
	defer func() { yes = recover() != nil }()
	b.Release()
	return false
}

// TestStressScanIterEarlyCloseBalancesPins: closing a ScanIter at any point —
// before its first entry, mid-span with blocks fetched and not yet entered,
// after the last entry — releases every pin it took. Two in every three blocks are resident, so spans mix cache pins with
// buffer pins; freed arrays are poisoned, so a pin dropped too early shows in
// the entries compared; a pin dropped twice panics in Release; and a pin
// never dropped is found afterwards: once the table has left the cache, every
// block Peek handed out must have no holder left.
func TestStressScanIterEarlyCloseBalancesPins(t *testing.T) {
	cache.PoisonFreed.Store(true)
	defer cache.PoisonFreed.Store(false)
	rng := rand.New(rand.NewSource(11))
	entries := randomEntries(rng, 4000)
	rd := buildTableOpts(t, entries, WriterOptions{BlockSize: 256, IndexChunkSize: 16})
	c := &peekRecorder{LRU: cache.New(8 << 20)}
	rd.SetBlockCache(c)
	for i, e := range entries {
		if i%30 < 20 {
			if _, err := rd.Get(e.Key); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, stop := range []int{0, 1, 5, 200, 201, 2999, len(entries)} {
		it := rd.ScanIter()
		n := 0
		for ; n < stop && it.Valid(); it.Next() {
			if !sameEntry(it.Entry(), entries[n]) {
				t.Fatalf("stop %d: entry %d = %q/%.20q", stop, n, it.Entry().Key, it.Entry().Value)
			}
			n++
		}
		if n != stop {
			t.Fatalf("stop %d: iterator ended after %d entries: %v", stop, n, it.Err())
		}
		it.Close()
		if it.scan != nil || it.blk != nil || it.prev != nil {
			t.Fatalf("stop %d: Close left scan=%v blk=%v prev=%v", stop, it.scan, it.blk, it.prev)
		}
	}
	if len(c.peeked) < 100 {
		t.Fatalf("only %d resident blocks were scanned", len(c.peeked))
	}
	c.DropTable(rd.id)
	seen := map[*cache.Block]bool{}
	for _, b := range c.peeked {
		if !seen[b] && !released(b) {
			t.Fatalf("a pin on a block handed out by Peek was never released")
		}
		seen[b] = true
	}
	rd.SetBlockCache(nil)
	checkSameEntries(t, "after the early closes", drainClone(t, rd.ScanIter()), entries)
}

// TestScanIterStartsNoGoroutine: a ScanIter reads its spans on the goroutine
// that iterates — entering a table of several spans starts nothing beside it.
func TestScanIterStartsNoGoroutine(t *testing.T) {
	entries := randomEntries(rand.New(rand.NewSource(13)), 3000)
	rd := buildTableOpts(t, entries, WriterOptions{BlockSize: 256, IndexChunkSize: 64})
	if n := len(rd.chunks); n < 2 {
		t.Fatalf("the table has %d index chunks; the test needs several spans", n)
	}
	before := runtime.NumGoroutine()
	it := rd.ScanIter()
	defer it.Close()
	if !it.Valid() {
		t.Fatal(it.Err())
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("entering a ScanIter took the goroutine count from %d to %d", before, after)
	}
	checkSameEntries(t, "the scan", drainClone(t, it), entries)
}
