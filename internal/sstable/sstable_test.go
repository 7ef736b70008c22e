package sstable

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/iterator"
)

func entry(key, val string, seq uint64) iterator.Entry {
	return iterator.Entry{Key: []byte(key), Value: []byte(val), Seq: seq}
}

// buildTable writes entries (must be sorted) into an in-memory table and
// returns a Reader over it.
func buildTable(t *testing.T, entries []iterator.Entry) *Reader {
	t.Helper()
	var buf bytes.Buffer
	w := NewWriter(&buf, len(entries))
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

func TestWriteReadRoundTrip(t *testing.T) {
	var entries []iterator.Entry
	for i := 0; i < 1000; i++ {
		entries = append(entries, entry(fmt.Sprintf("key-%06d", i), fmt.Sprintf("val-%d", i), uint64(i)))
	}
	rd := buildTable(t, entries)
	if rd.EntryCount() != 1000 {
		t.Errorf("EntryCount = %d", rd.EntryCount())
	}
	for _, want := range entries {
		got, err := rd.Get(want.Key)
		if err != nil {
			t.Fatalf("Get(%q): %v", want.Key, err)
		}
		if !bytes.Equal(got.Value, want.Value) || got.Seq != want.Seq {
			t.Fatalf("Get(%q) = %+v, want %+v", want.Key, got, want)
		}
	}
}

func TestGetAbsentKey(t *testing.T) {
	rd := buildTable(t, []iterator.Entry{entry("b", "1", 1), entry("d", "2", 2)})
	for _, k := range []string{"a", "c", "e"} {
		if _, err := rd.Get([]byte(k)); err != ErrNotFound {
			t.Errorf("Get(%q) err = %v, want ErrNotFound", k, err)
		}
	}
}

func TestTombstoneRoundTrip(t *testing.T) {
	rd := buildTable(t, []iterator.Entry{
		entry("a", "x", 1),
		{Key: []byte("b"), Seq: 2, Tombstone: true},
		entry("c", "y", 3),
	})
	got, err := rd.Get([]byte("b"))
	if err != nil {
		t.Fatalf("Get tombstone: %v", err)
	}
	if !got.Tombstone || len(got.Value) != 0 {
		t.Errorf("tombstone = %+v", got)
	}
}

func TestIterOrderAndCompleteness(t *testing.T) {
	var entries []iterator.Entry
	for i := 0; i < 5000; i++ { // several blocks
		entries = append(entries, entry(fmt.Sprintf("key-%08d", i), fmt.Sprintf("%d", i), uint64(i)))
	}
	rd := buildTable(t, entries)
	it := rd.Iter()
	n := 0
	var prev []byte
	for ; it.Valid(); it.Next() {
		k := it.Entry().Key
		if prev != nil && bytes.Compare(prev, k) >= 0 {
			t.Fatalf("iteration out of order at %q", k)
		}
		prev = append(prev[:0], k...)
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iter err: %v", err)
	}
	if n != len(entries) {
		t.Errorf("iterated %d entries, want %d", n, len(entries))
	}
}

func TestIterSeekGE(t *testing.T) {
	var entries []iterator.Entry
	for i := 0; i < 3000; i += 3 { // keys 0,3,6,... across many blocks
		entries = append(entries, entry(fmt.Sprintf("key-%08d", i), "v", uint64(i)))
	}
	rd := buildTable(t, entries)
	cases := []struct {
		seek string
		want string
	}{
		{"key-00000000", "key-00000000"}, // first
		{"key-00000004", "key-00000006"}, // between keys
		{"key-00001500", "key-00001500"}, // exact mid-table
		{"key-00002996", "key-00002997"}, // near end
		{"", "key-00000000"},             // before everything
	}
	for _, c := range cases {
		it := rd.IterFrom([]byte(c.seek))
		if !it.Valid() || string(it.Entry().Key) != c.want {
			t.Errorf("SeekGE(%q) at %q, want %q", c.seek, it.Entry().Key, c.want)
		}
	}
	if it := rd.IterFrom([]byte("key-99999999")); it.Valid() {
		t.Errorf("SeekGE past end should be invalid")
	}
	// Iteration after a seek remains sorted and complete.
	it := rd.IterFrom([]byte("key-00001500"))
	n := 0
	for ; it.Valid(); it.Next() {
		n++
	}
	if want := 500; n != want { // keys 1500,1503,...,2997
		t.Errorf("iterated %d entries after seek, want %d", n, want)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
}

func TestWriterRejectsOutOfOrder(t *testing.T) {
	w := NewWriter(&bytes.Buffer{}, 2)
	if err := w.Add(entry("b", "1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Add(entry("a", "2", 2)); err == nil {
		t.Errorf("out-of-order key accepted")
	}
	if err := w.Add(entry("b", "2", 2)); err == nil {
		t.Errorf("duplicate key accepted")
	}
	if err := w.Add(iterator.Entry{}); err == nil {
		t.Errorf("empty key accepted")
	}
}

func TestWriterFinishTwice(t *testing.T) {
	w := NewWriter(&bytes.Buffer{}, 1)
	if err := w.Add(entry("a", "1", 1)); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err == nil {
		t.Errorf("second Finish accepted")
	}
	if err := w.Add(entry("b", "1", 1)); err == nil {
		t.Errorf("Add after Finish accepted")
	}
}

func TestEmptyTable(t *testing.T) {
	rd := buildTable(t, nil)
	if rd.EntryCount() != 0 {
		t.Errorf("EntryCount = %d", rd.EntryCount())
	}
	if _, err := rd.Get([]byte("any")); err != ErrNotFound {
		t.Errorf("Get on empty = %v", err)
	}
	if rd.Iter().Valid() {
		t.Errorf("iterator over empty table valid")
	}
}

func TestCorruptionDetected(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 100)
	for i := 0; i < 100; i++ {
		if err := w.Add(entry(fmt.Sprintf("k%04d", i), "v", uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	t.Run("flipped data byte", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[10] ^= 0xff
		rd, err := NewReader(bytes.NewReader(bad), int64(len(bad)))
		if err != nil {
			return // corruption caught at open: acceptable
		}
		it := rd.Iter()
		for it.Valid() {
			it.Next()
		}
		if it.Err() == nil {
			t.Errorf("corrupt block not detected during scan")
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		bad := append([]byte(nil), data...)
		bad[len(bad)-1] ^= 0xff
		if _, err := NewReader(bytes.NewReader(bad), int64(len(bad))); err == nil {
			t.Errorf("bad magic accepted")
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := NewReader(bytes.NewReader(data[:10]), 10); err == nil {
			t.Errorf("truncated file accepted")
		}
	})
}

func TestOpenCloseFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.sst")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f, 10)
	for i := 0; i < 10; i++ {
		if err := w.Add(entry(fmt.Sprintf("k%d", i), "v", uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer rd.Close()
	got, err := rd.Get([]byte("k3"))
	if err != nil || string(got.Value) != "v" {
		t.Errorf("Get(k3) = %+v, %v", got, err)
	}
	if rd.FileSize() == 0 {
		t.Errorf("FileSize = 0")
	}
	if _, err := Open(filepath.Join(dir, "missing.sst")); err == nil {
		t.Errorf("Open of missing file succeeded")
	}
}

func TestMergeDedupAndTombstones(t *testing.T) {
	newer := buildTable(t, []iterator.Entry{
		{Key: []byte("a"), Seq: 10, Tombstone: true},
		entry("b", "new", 11),
	})
	older := buildTable(t, []iterator.Entry{
		entry("a", "old", 1),
		entry("b", "old", 2),
		entry("c", "keep", 3),
	})

	var out bytes.Buffer
	stats, err := MergeTo(NewWriter(&out, MergeEntries(newer, older)), iterator.IsTombstone, newer, older)
	if err != nil {
		t.Fatalf("Merge: %v", err)
	}
	rd, err := NewReader(bytes.NewReader(out.Bytes()), int64(out.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if rd.EntryCount() != 2 {
		t.Errorf("merged EntryCount = %d, want 2 (a deleted)", rd.EntryCount())
	}
	b, err := rd.Get([]byte("b"))
	if err != nil || string(b.Value) != "new" {
		t.Errorf("merged b = %+v, %v; want new", b, err)
	}
	if _, err := rd.Get([]byte("a")); err != ErrNotFound {
		t.Errorf("deleted key a survived major compaction")
	}
	if stats.BytesRead == 0 || stats.BytesWritten == 0 || stats.EntriesIn != 5 || stats.EntriesOut != 2 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestMergeKeepTombstones(t *testing.T) {
	newer := buildTable(t, []iterator.Entry{{Key: []byte("a"), Seq: 10, Tombstone: true}})
	older := buildTable(t, []iterator.Entry{entry("a", "old", 1)})
	var out bytes.Buffer
	if _, err := MergeTo(NewWriter(&out, MergeEntries(newer, older)), nil, newer, older); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(out.Bytes()), int64(out.Len()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := rd.Get([]byte("a"))
	if err != nil || !got.Tombstone {
		t.Errorf("minor compaction should keep tombstone, got %+v, %v", got, err)
	}
}

// TestCorruptCompressedBlock: a block frame claiming codec 1, which DEFLATE
// wrote before it was retired, is corrupt however sound its checksum: the
// table opens, and every read of that block fails with ErrCorrupt.
func TestCorruptCompressedBlock(t *testing.T) {
	var entries []iterator.Entry
	for i := 0; i < 1000; i++ {
		entries = append(entries, entry(fmt.Sprintf("k%06d", i), strings.Repeat("x", 50), uint64(i)))
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
	data := withBlockCodec(t, buf.Bytes(), 1)
	rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := rd.Get(entries[0].Key); err != ErrCorrupt {
		t.Fatalf("Get err = %v, want ErrCorrupt", err)
	}
	for _, it := range []*Iter{rd.Iter(), rd.ScanIter()} {
		for it.Valid() {
			it.Next()
		}
		if err := it.Err(); err != ErrCorrupt {
			t.Fatalf("scan err = %v, want ErrCorrupt", err)
		}
		it.Close()
	}
}

func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(200)
		entries := make([]iterator.Entry, 0, n)
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("%08x", i*7+1)
			val := make([]byte, r.Intn(64))
			r.Read(val)
			entries = append(entries, iterator.Entry{
				Key: []byte(key), Value: val, Seq: uint64(i), Tombstone: r.Intn(10) == 0,
			})
		}
		var buf bytes.Buffer
		w := NewWriter(&buf, n)
		for _, e := range entries {
			if e.Tombstone {
				e.Value = nil
			}
			if err := w.Add(e); err != nil {
				return false
			}
		}
		if err := w.Finish(); err != nil {
			return false
		}
		rd, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
		if err != nil {
			return false
		}
		got := iterator.Drain(rd.Iter())
		if len(got) != len(entries) {
			return false
		}
		for i, e := range entries {
			g := got[i]
			if !bytes.Equal(g.Key, e.Key) || g.Seq != e.Seq || g.Tombstone != e.Tombstone {
				return false
			}
			if !e.Tombstone && !bytes.Equal(g.Value, e.Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkWriter(b *testing.B) {
	val := bytes.Repeat([]byte("x"), 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		w := NewWriter(&buf, 1000)
		for j := 0; j < 1000; j++ {
			if err := w.Add(iterator.Entry{Key: []byte(fmt.Sprintf("key-%08d", j)), Value: val, Seq: uint64(j)}); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Finish(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWriterAdd is the per-entry cost of building a table — block
// encoding, the key hash, the Bloom filter and the key sketch — with the
// device taken out: 120-byte entries (20-byte key, 100-byte value, the
// harness's shape) written to io.Discard.
func BenchmarkWriterAdd(b *testing.B) {
	keys := make([][]byte, 1<<16)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%016d", i))
	}
	val := bytes.Repeat([]byte("x"), 100)
	var w *Writer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(keys)
		if j == 0 {
			w = NewWriter(io.Discard, len(keys))
		}
		if err := w.Add(iterator.Entry{Key: keys[j], Value: val, Seq: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReaderGet(b *testing.B) {
	var buf bytes.Buffer
	w := NewWriter(&buf, 10000)
	for j := 0; j < 10000; j++ {
		if err := w.Add(iterator.Entry{Key: []byte(fmt.Sprintf("key-%08d", j)), Value: []byte("value"), Seq: uint64(j)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		b.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()), int64(buf.Len()))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rd.Get([]byte(fmt.Sprintf("key-%08d", i%10000))); err != nil {
			b.Fatal(err)
		}
	}
}
