package wal

// Append writes one record as a batch of one. The record is buffered by the
// OS; call Sync for durability.
func (w *Writer) Append(r Record) error {
	return w.AppendBatch([]Record{r})
}

// Size returns the bytes appended so far.
func (w *Writer) Size() int64 { return w.size }
