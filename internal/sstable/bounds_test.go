package sstable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/iterator"
)

// buildLegacyV1 writes entries into a version-1 table: the pre-bounds
// format with the 64-byte footer and MagicV1, reproducing what tables on
// disk looked like before the footer version bump. Used to prove
// backward-compatible opens.
func buildLegacyV1(t testing.TB, entries []iterator.Entry) []byte {
	t.Helper()
	var buf bytes.Buffer
	// Version 1 shares the version-2 block and index layout, so build a
	// v2 table and strip its bounds block below.
	w := NewWriterOpts(&buf, len(entries), WriterOptions{FormatVersion: FormatV2})
	for _, e := range entries {
		if err := w.Add(e); err != nil {
			t.Fatalf("Add(%q): %v", e.Key, err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	// Strip the bounds block and rewrite the footer in version-1 shape.
	// The v2 layout is ... bloom bounds footerV2; everything before the
	// bounds block is byte-identical to what the v1 writer produced.
	data := buf.Bytes()
	f, version, err := unmarshalFooter(data[len(data)-footerSize:])
	if err != nil || version != 2 {
		t.Fatalf("unmarshalFooter: version=%d err=%v", version, err)
	}
	legacy := append([]byte(nil), data[:f.boundsOff]...)
	v1 := make([]byte, footerV1Size)
	binary.LittleEndian.PutUint64(v1[0:], f.indexOff)
	binary.LittleEndian.PutUint64(v1[8:], f.indexLen)
	binary.LittleEndian.PutUint64(v1[16:], f.bloomOff)
	binary.LittleEndian.PutUint64(v1[24:], f.bloomLen)
	binary.LittleEndian.PutUint64(v1[32:], f.entryCount)
	binary.LittleEndian.PutUint64(v1[40:], f.keyBytes)
	binary.LittleEndian.PutUint64(v1[48:], f.valBytes)
	binary.LittleEndian.PutUint64(v1[56:], MagicV1)
	return append(legacy, v1...)
}

func testEntries(n int) []iterator.Entry {
	var entries []iterator.Entry
	for i := 0; i < n; i++ {
		entries = append(entries, entry(fmt.Sprintf("key-%06d", i), fmt.Sprintf("val-%d", i), uint64(i+1)))
	}
	return entries
}

func TestBoundsRoundTrip(t *testing.T) {
	entries := testEntries(2000)
	rd := buildTable(t, entries)
	if rd.FooterVersion() != FormatLatest {
		t.Fatalf("FooterVersion = %d, want %d", rd.FooterVersion(), FormatLatest)
	}
	b, ok := rd.Bounds()
	if !ok {
		t.Fatal("Bounds reported not ok for a non-empty table")
	}
	if !bytes.Equal(b.Smallest, entries[0].Key) || !bytes.Equal(b.Largest, entries[len(entries)-1].Key) {
		t.Errorf("key bounds = [%q, %q], want [%q, %q]", b.Smallest, b.Largest, entries[0].Key, entries[len(entries)-1].Key)
	}
	if b.MinSeq != 1 || b.MaxSeq != uint64(len(entries)) {
		t.Errorf("seq bounds = [%d, %d], want [1, %d]", b.MinSeq, b.MaxSeq, len(entries))
	}
}

func TestBoundsEmptyTable(t *testing.T) {
	rd := buildTable(t, nil)
	if _, ok := rd.Bounds(); ok {
		t.Error("empty table reported bounds")
	}
}

func TestLegacyV1OpenBackfillsBounds(t *testing.T) {
	entries := testEntries(2000) // several blocks, so backfill reads a non-first block
	data := buildLegacyV1(t, entries)
	rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
	if err != nil {
		t.Fatalf("open v1 table: %v", err)
	}
	if rd.FooterVersion() != 1 {
		t.Fatalf("FooterVersion = %d, want 1", rd.FooterVersion())
	}
	b, ok := rd.Bounds()
	if !ok {
		t.Fatal("no bounds backfilled for v1 table")
	}
	if !bytes.Equal(b.Smallest, entries[0].Key) || !bytes.Equal(b.Largest, entries[len(entries)-1].Key) {
		t.Errorf("backfilled key bounds = [%q, %q], want [%q, %q]",
			b.Smallest, b.Largest, entries[0].Key, entries[len(entries)-1].Key)
	}
	// The sequence range is unknowable without a full scan: it must
	// degrade to the maximally pessimistic range so early exit is never
	// wrong, only disabled.
	if b.MinSeq != 0 || b.MaxSeq != ^uint64(0) {
		t.Errorf("backfilled seq bounds = [%d, %d], want [0, MaxUint64]", b.MinSeq, b.MaxSeq)
	}
	// And the table still reads correctly.
	for _, want := range []int{0, 999, 1999} {
		got, err := rd.Get(entries[want].Key)
		if err != nil || !bytes.Equal(got.Value, entries[want].Value) {
			t.Fatalf("v1 Get(%q) = %+v, %v", entries[want].Key, got, err)
		}
	}
	if _, err := rd.Get([]byte("zzz-absent")); err != ErrNotFound {
		t.Fatalf("v1 Get(absent) err = %v, want ErrNotFound", err)
	}
	n := 0
	for it := rd.Iter(); it.Valid(); it.Next() {
		n++
	}
	if n != len(entries) {
		t.Fatalf("v1 scan yielded %d entries, want %d", n, len(entries))
	}
}

func TestBoundsCorruptRejected(t *testing.T) {
	entries := testEntries(10)
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
	data := buf.Bytes()
	f, _, err := unmarshalFooter(data[len(data)-footerSize:])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the bounds block: the open must fail with
	// ErrCorrupt, not silently lose pruning metadata.
	data[f.boundsOff+1] ^= 0xff
	if _, err := NewReader(bytes.NewReader(data), int64(len(data))); err != ErrCorrupt {
		t.Fatalf("open with corrupt bounds err = %v, want ErrCorrupt", err)
	}
}

// TestGetEntryPinsItsBlock: with or without a cache, filling read or hit,
// a found entry comes with the pin its value aliases, and a miss with none.
func TestGetEntryPinsItsBlock(t *testing.T) {
	entries := testEntries(100)
	for _, cached := range []bool{false, true} {
		rd := buildTable(t, entries)
		if cached {
			rd.SetBlockCache(cache.NewSharded(1<<20, 4))
		}
		for pass := 0; pass < 2; pass++ {
			e, pin, err := rd.GetEntry(entries[5].Key)
			if err != nil {
				t.Fatal(err)
			}
			if pin == nil {
				t.Fatalf("cached=%v pass %d: hit returned no pin", cached, pass)
			}
			if !bytes.Equal(e.Key, entries[5].Key) || !bytes.Equal(e.Value, entries[5].Value) || e.Seq != entries[5].Seq {
				t.Errorf("cached=%v pass %d: entry = %q/%q@%d", cached, pass, e.Key, e.Value, e.Seq)
			}
			pin.Release()
		}
		if _, pin, err := rd.GetEntry([]byte("key-000005!")); err != ErrNotFound || pin != nil {
			t.Errorf("cached=%v: absent key: pin %v, err %v", cached, pin, err)
		}
	}
}

func TestLegacyV1OpenWithHintSkipsBackfill(t *testing.T) {
	entries := testEntries(2000)
	data := buildLegacyV1(t, entries)
	// A persisted hint (the engine manifest's copy) is adopted verbatim —
	// including a real sequence range the backfill could never recover.
	hint := &Bounds{
		Smallest: entries[0].Key,
		Largest:  entries[len(entries)-1].Key,
		MinSeq:   1,
		MaxSeq:   uint64(len(entries)),
	}
	rd, err := NewReaderWithBounds(bytes.NewReader(data), int64(len(data)), hint)
	if err != nil {
		t.Fatal(err)
	}
	b, ok := rd.Bounds()
	if !ok {
		t.Fatal("no bounds")
	}
	if b.MaxSeq != uint64(len(entries)) || b.MinSeq != 1 {
		t.Errorf("hinted seq bounds = [%d, %d], want [1, %d]", b.MinSeq, b.MaxSeq, len(entries))
	}
	if !bytes.Equal(b.Smallest, entries[0].Key) || !bytes.Equal(b.Largest, entries[len(entries)-1].Key) {
		t.Errorf("hinted key bounds = [%q, %q]", b.Smallest, b.Largest)
	}
	// An implausible hint (inverted keys) is ignored in favor of backfill.
	bad := &Bounds{Smallest: []byte("zzz"), Largest: []byte("aaa")}
	rd2, err := NewReaderWithBounds(bytes.NewReader(data), int64(len(data)), bad)
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := rd2.Bounds()
	if !bytes.Equal(b2.Smallest, entries[0].Key) || b2.MaxSeq != ^uint64(0) {
		t.Errorf("implausible hint not ignored: bounds = %+v", b2)
	}
}
