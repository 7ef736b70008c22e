package sstable

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/iterator"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden sstable fixtures in testdata/")

// goldenEntries is the fixed data set baked into the committed fixtures.
// Changing it invalidates testdata/*.sst; regenerate with -update-golden.
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

func goldenBytes(t *testing.T, version int) []byte {
	t.Helper()
	entries := goldenEntries()
	if version == FormatV1 {
		return buildLegacyV1(t, entries)
	}
	var buf bytes.Buffer
	// Small blocks so the fixtures span several blocks (and, for v3,
	// several index chunks).
	w := NewWriterOpts(&buf, len(entries), WriterOptions{
		FormatVersion: version, BlockSize: 512, IndexChunkSize: 8,
	})
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

// TestGoldenTablesReadable opens the committed on-disk fixtures — real
// byte-for-byte artifacts of the version-1, -2 and -3 writers — and checks
// they read back exactly. This is the compatibility contract: a format
// change that can no longer read old files fails here, not in production.
func TestGoldenTablesReadable(t *testing.T) {
	entries := goldenEntries()
	for _, version := range []int{FormatV1, FormatV2, FormatV3} {
		name := fmt.Sprintf("v%d.sst", version)
		path := filepath.Join("testdata", name)
		t.Run(name, func(t *testing.T) {
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, goldenBytes(t, version), 0o644); err != nil {
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
			if got := rd.FooterVersion(); got != version {
				t.Fatalf("FooterVersion = %d, want %d", got, version)
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
			// The fixtures' filters were written with the per-probe hash
			// formula; the single-pass one must find every key in them.
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
}

// TestGoldenV2BytesStable pins the version-2 writer's output to the
// committed fixture byte for byte: the legacy write path must stay frozen
// now that version 3 is the default.
func TestGoldenV2BytesStable(t *testing.T) {
	if *updateGolden {
		t.Skip("fixtures being rewritten")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "v2.sst"))
	if err != nil {
		t.Fatalf("missing golden fixture (regenerate with -update-golden): %v", err)
	}
	if got := goldenBytes(t, FormatV2); !bytes.Equal(got, want) {
		t.Fatalf("v2 writer output drifted from committed fixture (%d vs %d bytes)", len(got), len(want))
	}
}

// TestWriterBytesPinned pins what the current writers emit for the golden
// entry list to the SHA-256 recorded at PR 21's commit (0f1d4cc), before
// the key hash became single-pass: filter bits and sketch registers derive
// from that hash, so any drift in it changes these bytes.
func TestWriterBytesPinned(t *testing.T) {
	for version, want := range map[int]string{
		FormatV2: "04dd3bfc296e60ae6bf216ac4222bd7cb9589b9ed4920b3f49c4d952d0042a2c",
		FormatV3: "f15328d302fa8c868e54cf43e88d80c78fbff0aaae73e293b1cd7aa195ab53e5",
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256(goldenBytes(t, version))); got != want {
			t.Errorf("v%d table bytes hash to %s, want %s", version, got, want)
		}
	}
}
