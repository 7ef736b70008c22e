package sstable

import (
	"fmt"

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

// MergeEntries is the number of entries a merge of inputs reads: the
// expected-entries estimate for the Writer of its output.
func MergeEntries(inputs ...*Reader) int {
	n := 0
	for _, rd := range inputs {
		n += int(rd.EntryCount())
	}
	return n
}

// MergeTo merge-sorts the given tables into a Writer the caller built,
// which it finishes, keeping only the newest (highest-Seq) version of each
// key; input order does not matter. When drop is set, a newest version it
// reports true for is discarded as well: iterator.IsTombstone for a major
// compaction producing the final table, whose deletion markers and the
// versions they shadow go, or a test that a newer version lives on in a
// table outside the merge (see Reader.HoldsNewer), whose block reads the
// stats do not count. The inputs are read through ScanIters — a merge reads
// every block of tables that are obsolete once it commits, so it fills the
// block cache with none of them and moves each resident block it takes up
// to the cold end, spent — and a Writer that publishes (PublishTo) carries
// their residency over to the output, which so displaces its own dead
// input. A caller whose merge then does not commit Unspends the inputs.
func MergeTo(tw *Writer, drop func(iterator.Entry) bool, inputs ...*Reader) (MergeStats, error) {
	var stats MergeStats
	children := make([]iterator.Iterator, len(inputs))
	iters := make([]Iter, len(inputs))
	for i, rd := range inputs {
		iters[i] = *rd.ScanIter()
		iters[i].spend = true
		children[i] = &iters[i]
		stats.BytesRead += rd.FileSize()
		stats.EntriesIn += rd.EntryCount()
	}
	tw.inputs = iters
	defer func() {
		tw.inputs = nil
		for i := range iters {
			iters[i].Close()
		}
	}()
	merged := iterator.NewDedup(iterator.NewMerging(children...), drop)
	if err := WriteAll(tw, merged); err != nil {
		return stats, fmt.Errorf("sstable: merge: %w", err)
	}
	for i := range iters {
		if err := iters[i].Err(); err != nil {
			return stats, fmt.Errorf("sstable: merge input %d: %w", i, err)
		}
	}
	stats.BytesWritten = tw.Size()
	stats.EntriesOut = tw.EntryCount()
	return stats, nil
}
