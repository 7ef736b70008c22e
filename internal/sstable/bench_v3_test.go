package sstable

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/iterator"
)

const benchTableEntries = 10000

func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("bench/%03d/key-%08d", i/100, i))
	}
	return keys
}

func benchTable(b *testing.B) *Reader {
	b.Helper()
	keys := benchKeys(benchTableEntries)
	var buf bytes.Buffer
	w := NewWriter(&buf, len(keys))
	for i, k := range keys {
		if err := w.Add(iterator.Entry{Key: k, Value: []byte("value-payload"), Seq: uint64(i + 1)}); err != nil {
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
	return rd
}

// BenchmarkColdGet measures point reads with no block cache attached:
// every Get pays the full block read, decode and in-block search — a binary
// search of the restart array and a walk of at most one interval.
func BenchmarkColdGet(b *testing.B) {
	keys := benchKeys(benchTableEntries)
	rd := benchTable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rd.Get(keys[(i*7919)%len(keys)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdScan measures a full cacheless table scan per iteration.
func BenchmarkColdScan(b *testing.B) {
	rd := benchTable(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for it := rd.Iter(); it.Valid(); it.Next() {
			n++
		}
		if n != benchTableEntries {
			b.Fatalf("scan yielded %d entries", n)
		}
	}
}

// BenchmarkEncodeBlock is the allocation guard for the single-buffer block
// framing: the hot loop must report 0 allocs/op.
func BenchmarkEncodeBlock(b *testing.B) {
	var bb blockBuilder
	for i := 0; i < 180; i++ { // ~a BlockSize worth of entries
		bb.add(iterator.Entry{
			Key:   []byte(fmt.Sprintf("bench/key-%08d", i)),
			Value: []byte("value-payload"),
			Seq:   uint64(i + 1),
		})
	}
	body := bb.finish()
	frameBuf := make([]byte, 0, 2*len(body)+16)
	b.ReportAllocs()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frameBuf = appendBlock(frameBuf[:0], body)
	}
}
