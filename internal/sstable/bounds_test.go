package sstable

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cache"
	"repro/internal/iterator"
)

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
	if e := rd.Sketch().Estimate(); e < 1800 || e > 2200 {
		t.Errorf("sketch estimate %.0f, want ≈2000", e)
	}
}

func TestBoundsEmptyTable(t *testing.T) {
	rd := buildTable(t, nil)
	if _, ok := rd.Bounds(); ok {
		t.Error("empty table reported bounds")
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
	f, err := unmarshalFooter(data[len(data)-footerSize:])
	if err != nil {
		t.Fatal(err)
	}
	// A bounds block without its sketch, checksum intact: every table is
	// written with one, so its absence is corruption, not an older table.
	b := Bounds{Smallest: entries[0].Key, Largest: entries[len(entries)-1].Key, MinSeq: 1, MaxSeq: 10}
	noSketch := appendChecksummed(append([]byte(nil), data[:f.boundsOff]...), marshalBounds(b))
	f.boundsLen = uint64(len(noSketch)) - f.boundsOff
	noSketch = append(noSketch, f.marshal()...)
	if _, err := NewReader(bytes.NewReader(noSketch), int64(len(noSketch))); err != ErrCorrupt {
		t.Fatalf("open with a sketchless bounds block err = %v, want ErrCorrupt", err)
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
