package sstable

import (
	"fmt"
	"io"

	"repro/internal/iterator"
)

// MergeStats reports the disk I/O performed by a merge: the quantities the
// paper's cost function models. BytesRead is the total file size of the
// input tables; BytesWritten the size of the output table. Their sum is the
// per-merge contribution to costactual (Section 2).
type MergeStats struct {
	BytesRead    uint64
	BytesWritten uint64
	EntriesIn    uint64
	EntriesOut   uint64
}

// TotalIO returns BytesRead + BytesWritten.
func (s MergeStats) TotalIO() uint64 { return s.BytesRead + s.BytesWritten }

// Merge merge-sorts the given tables into a single new table written to w,
// keeping only the newest (highest-Seq) version of each key; input order
// does not matter. When dropTombstones is true (a major compaction
// producing the final table), deletion markers and the versions they
// shadow are discarded.
func Merge(w io.Writer, dropTombstones bool, inputs ...*Reader) (MergeStats, error) {
	return MergeCompressed(w, dropTombstones, NoCompression, inputs...)
}

// MergeCompressed is Merge with a data-block codec for the output table.
func MergeCompressed(w io.Writer, dropTombstones bool, compression Compression, inputs ...*Reader) (MergeStats, error) {
	return MergeOpts(w, dropTombstones, WriterOptions{Compression: compression}, inputs...)
}

// MergeOpts is Merge with full writer options for the output table; input
// tables of any format version merge into an output of the requested one.
func MergeOpts(w io.Writer, dropTombstones bool, opts WriterOptions, inputs ...*Reader) (MergeStats, error) {
	var stats MergeStats
	children := make([]iterator.Iterator, len(inputs))
	iters := make([]*Iter, len(inputs))
	expected := 0
	for i, rd := range inputs {
		it := rd.Iter()
		defer it.Close()
		iters[i] = it
		children[i] = it
		stats.BytesRead += rd.FileSize()
		stats.EntriesIn += rd.EntryCount()
		expected += int(rd.EntryCount())
	}
	merged := iterator.NewDedup(iterator.NewMerging(children...), dropTombstones)
	tw := NewWriterOpts(w, expected, opts)
	if err := WriteAll(tw, merged); err != nil {
		return stats, fmt.Errorf("sstable: merge: %w", err)
	}
	for i, it := range iters {
		if err := it.Err(); err != nil {
			return stats, fmt.Errorf("sstable: merge input %d: %w", i, err)
		}
	}
	stats.BytesWritten = tw.Size()
	stats.EntriesOut = tw.EntryCount()
	return stats, nil
}
