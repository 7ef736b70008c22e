package sstable

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/iterator"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden sstable fixture in testdata/")

// goldenEntries is the fixed data set baked into the committed fixture.
// Changing it invalidates testdata/v3.sst; regenerate with -update-golden.
func goldenEntries() []iterator.Entry {
	var entries []iterator.Entry
	for i := 0; i < 400; i++ {
		e := iterator.Entry{
			Key: []byte(fmt.Sprintf("golden/%02d/key-%05d", i/40, i)),
			Seq: uint64(i + 1),
		}
		if i%23 == 0 {
			e.Tombstone = true
		} else {
			e.Value = []byte(fmt.Sprintf("golden-value-%04d", i*3))
		}
		entries = append(entries, e)
	}
	return entries
}

func goldenBytes(t *testing.T) []byte {
	t.Helper()
	entries := goldenEntries()
	var buf bytes.Buffer
	// Small blocks so the fixture spans several blocks and index chunks.
	w := NewWriterOpts(&buf, len(entries), WriterOptions{BlockSize: 512, IndexChunkSize: 8})
	for _, e := range entries {
		if err := w.Add(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenTablesReadable opens the committed on-disk fixture — a
// byte-for-byte artifact of the writer, named for the v3 block layout it
// carries — and checks it reads back exactly: a change to the reader that
// can no longer read the written format fails here, not in production.
func TestGoldenTablesReadable(t *testing.T) {
	entries := goldenEntries()
	const name = "v3.sst"
	path := filepath.Join("testdata", name)
	t.Run(name, func(t *testing.T) {
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, goldenBytes(t), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden fixture (regenerate with -update-golden): %v", err)
		}
		rd, err := NewReader(bytes.NewReader(data), int64(len(data)))
		if err != nil {
			t.Fatalf("open golden %s: %v", name, err)
		}
		if rd.EntryCount() != uint64(len(entries)) {
			t.Fatalf("EntryCount = %d, want %d", rd.EntryCount(), len(entries))
		}
		got := iterator.Drain(rd.Iter())
		if len(got) != len(entries) {
			t.Fatalf("scan yielded %d entries, want %d", len(got), len(entries))
		}
		for i, want := range entries {
			g := got[i]
			if !bytes.Equal(g.Key, want.Key) || g.Seq != want.Seq ||
				g.Tombstone != want.Tombstone || !bytes.Equal(g.Value, want.Value) {
				t.Fatalf("entry %d = %+v, want %+v", i, g, want)
			}
		}
		for _, e := range entries {
			if !rd.filter.MayContain(e.Key) {
				t.Fatalf("filter of %s rejects its own key %q", name, e.Key)
			}
		}
		for _, i := range []int{0, 57, 201, 399} {
			g, err := rd.Get(entries[i].Key)
			if err != nil {
				t.Fatalf("Get(%q): %v", entries[i].Key, err)
			}
			if g.Tombstone != entries[i].Tombstone || !bytes.Equal(g.Value, entries[i].Value) {
				t.Fatalf("Get(%q) = %+v, want %+v", entries[i].Key, g, entries[i])
			}
		}
		if _, err := rd.Get([]byte("golden/99/absent")); err != ErrNotFound {
			t.Fatalf("Get(absent) err = %v, want ErrNotFound", err)
		}
	})
}

// TestOldFootersRefused: a table whose footer carries the magic of an
// earlier format — 1, 2 or 3 — fails to open with ErrCorrupt. Their filters
// were probed without the finaliser, so read today they would deny keys they
// hold: a refusal, never a misread.
func TestOldFootersRefused(t *testing.T) {
	good := goldenBytes(t)
	for _, magic := range []string{"STBL001F", "STBL002F", "STBL003F"} {
		data := append([]byte(nil), good...)
		// The magic is stored little-endian: its last letter comes first.
		for i := 0; i < 8; i++ {
			data[len(data)-1-i] = magic[i]
		}
		if _, err := NewReader(bytes.NewReader(data), int64(len(data))); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s footer: NewReader err = %v, want ErrCorrupt", magic, err)
		}
	}
	if _, err := NewReader(bytes.NewReader(good), int64(len(good))); err != nil {
		t.Fatalf("the same table under its own magic: %v", err)
	}
}

// TestWriterBytesPinned pins what the writer emits for the golden entry list
// to its SHA-256: filter bits derive from keyhash and the probe rule, sketch
// registers from keyhash, so any drift in either changes these bytes.
func TestWriterBytesPinned(t *testing.T) {
	const want = "9b3b1ac04ef63b3502e23d287c5113a7c41ad060deeb0f72727a1301bd3c0a77"
	if got := fmt.Sprintf("%x", sha256.Sum256(goldenBytes(t))); got != want {
		t.Errorf("table bytes hash to %s, want %s", got, want)
	}
}
