package lsm

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/iterator"
	"repro/internal/sstable"
)

// writeTableFile writes entries (sorted by key) into dir/name with the
// given format version.
func writeTableFile(t *testing.T, dir, name string, version int, entries []iterator.Entry) {
	t.Helper()
	var buf bytes.Buffer
	w := sstable.NewWriterOpts(&buf, len(entries), sstable.WriterOptions{FormatVersion: version})
	for _, e := range entries {
		if err := w.Add(e); err != nil {
			t.Fatalf("Add(%q): %v", e.Key, err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// writeV1TableFile writes a legacy version-1 table: it builds a version-2
// table, strips the bounds block and rewrites the footer in the 64-byte
// version-1 shape. The first seven fields of the v1 and v2 footers are
// identical (index/bloom extents and the three counters), so the prefix is
// copied verbatim.
func writeV1TableFile(t *testing.T, dir, name string, entries []iterator.Entry) {
	t.Helper()
	var buf bytes.Buffer
	w := sstable.NewWriterOpts(&buf, len(entries), sstable.WriterOptions{FormatVersion: sstable.FormatV2})
	for _, e := range entries {
		if err := w.Add(e); err != nil {
			t.Fatalf("Add(%q): %v", e.Key, err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	const footerV2Size, footerV1Size = 80, 64
	ft := data[len(data)-footerV2Size:]
	if binary.LittleEndian.Uint64(ft[72:]) != sstable.MagicV2 {
		t.Fatal("expected a v2 footer to downgrade")
	}
	boundsOff := binary.LittleEndian.Uint64(ft[56:])
	legacy := append([]byte(nil), data[:boundsOff]...)
	v1 := make([]byte, footerV1Size)
	copy(v1, ft[:56])
	binary.LittleEndian.PutUint64(v1[56:], sstable.MagicV1)
	legacy = append(legacy, v1...)
	if err := os.WriteFile(filepath.Join(dir, name), legacy, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestMixedVersionStore opens a store whose tables span all three sstable
// format versions, with no bounds hints in the manifest. The v1 table
// backfills the pessimistic [0, MaxUint64] sequence range, which sorts it
// FIRST in the descending-maxSeq probe order even though its data is the
// oldest — the exact shape that makes early exit unsound if it triggers on
// "found anything" instead of "found something provably newest".
func TestMixedVersionStore(t *testing.T) {
	dir := t.TempDir()
	e := func(k, v string, seq uint64) iterator.Entry {
		return iterator.Entry{Key: []byte(k), Value: []byte(v), Seq: seq}
	}
	// Oldest data, version-1 file: probed first due to the inflated maxSeq.
	writeV1TableFile(t, dir, "000001.sst", []iterator.Entry{
		e("deleted", "v1-alive", 7),
		e("old-only", "from-v1", 5),
		e("shadowed", "v1-stale", 6),
	})
	// Middle generation, version-2 file: tombstones "deleted".
	writeTableFile(t, dir, "000002.sst", sstable.FormatV2, []iterator.Entry{
		{Key: []byte("deleted"), Seq: 100, Tombstone: true},
		e("mid-only", "from-v2", 101),
		e("shadowed", "v2-stale", 102),
	})
	// Newest generation, version-3 file: wins "shadowed".
	writeTableFile(t, dir, "000003.sst", sstable.FormatV3, []iterator.Entry{
		e("new-only", "from-v3", 202),
		e("shadowed", "v3-wins", 201),
	})
	manifest := "# lsm manifest\nnext-file 4\nnext-seq 300\n" +
		"table 000003.sst\ntable 000002.sst\ntable 000001.sst\n"
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST"), []byte(manifest), 0o644); err != nil {
		t.Fatal(err)
	}

	db, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open mixed-version store: %v", err)
	}
	defer db.Close()

	// The v1 hit for "shadowed" (seq 6) arrives first; the probe loop must
	// keep going because the remaining tables advertise maxSeq > 6.
	for _, tc := range []struct{ key, want string }{
		{"shadowed", "v3-wins"},
		{"old-only", "from-v1"},
		{"mid-only", "from-v2"},
		{"new-only", "from-v3"},
	} {
		got, err := db.GetContext(context.Background(), []byte(tc.key))
		if err != nil || string(got) != tc.want {
			t.Errorf("Get(%q) = %q, %v; want %q", tc.key, got, err, tc.want)
		}
	}
	// The v2 tombstone (seq 100) must shadow the v1 value (seq 7) even
	// though the v1 table was probed first with its pessimistic bounds.
	if _, err := db.GetContext(context.Background(), []byte("deleted")); err != ErrNotFound {
		t.Errorf("Get(deleted) err = %v, want ErrNotFound", err)
	}
	if _, err := db.GetContext(context.Background(), []byte("absent")); err != ErrNotFound {
		t.Errorf("Get(absent) err = %v, want ErrNotFound", err)
	}

	// New writes sequence after next-seq and shadow everything.
	if err := db.PutContext(context.Background(), []byte("shadowed"), []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	if got, err := db.GetContext(context.Background(), []byte("shadowed")); err != nil || string(got) != "rewritten" {
		t.Errorf("post-write Get(shadowed) = %q, %v", got, err)
	}

	// A major compaction across all three versions must produce one table
	// with the same visible state.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.MajorCompact("BT(I)", 4, 0); err != nil {
		t.Fatalf("cross-version compaction: %v", err)
	}
	for _, tc := range []struct{ key, want string }{
		{"shadowed", "rewritten"},
		{"old-only", "from-v1"},
		{"mid-only", "from-v2"},
		{"new-only", "from-v3"},
	} {
		got, err := db.GetContext(context.Background(), []byte(tc.key))
		if err != nil || string(got) != tc.want {
			t.Errorf("post-compaction Get(%q) = %q, %v; want %q", tc.key, got, err, tc.want)
		}
	}
	if _, err := db.GetContext(context.Background(), []byte("deleted")); err != ErrNotFound {
		t.Errorf("post-compaction Get(deleted) err = %v, want ErrNotFound", err)
	}
}

// TestTableFormatOption pins Options.TableFormat: flushes write version 3
// by default and version 2 when explicitly downgraded.
func TestTableFormatOption(t *testing.T) {
	for _, tc := range []struct {
		name        string
		opts        Options
		wantVersion int
	}{
		{"default-v3", Options{}, sstable.FormatV3},
		{"explicit-v2", Options{TableFormat: sstable.FormatV2}, sstable.FormatV2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			if err := db.PutContext(context.Background(), []byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			matches, err := filepath.Glob(filepath.Join(dir, "*.sst"))
			if err != nil || len(matches) != 1 {
				t.Fatalf("sst files = %v, %v", matches, err)
			}
			data, err := os.ReadFile(matches[0])
			if err != nil {
				t.Fatal(err)
			}
			rd, err := sstable.NewReader(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				t.Fatal(err)
			}
			if got := rd.FooterVersion(); got != tc.wantVersion {
				t.Errorf("flushed table version = %d, want %d", got, tc.wantVersion)
			}
		})
	}
}
