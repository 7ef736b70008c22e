package sstable

import (
	"fmt"
	"io"
	"sync"
)

// Write-behind sizing: two buffers per build, so the file writes of one
// overlap the encoding of the next, each large enough that a hand-off
// between the two goroutines is rare beside the work it moves. A store
// keeps the buffers of two builds between builds. The stage moves the file
// writes to another thread without changing their size: a table was written
// a block (about a page) at a time before, and where the page cache backs a
// large write with one large folio its cost is far less predictable.
const (
	writeBehindBufBytes = 128 << 10
	writeBehindDepth    = 2
	writeBehindKeep     = 2 * writeBehindDepth
	writePieceBytes     = 4 << 10
)

// WriteBuffers recycles write-behind buffers across the table builds of one
// store: a build takes its buffers here and returns them when it closes, so
// the steady state allocates nothing. The zero value is ready to use.
type WriteBuffers struct {
	mu   sync.Mutex
	free [][]byte
}

func (p *WriteBuffers) get() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		return b
	}
	return make([]byte, 0, writeBehindBufBytes)
}

func (p *WriteBuffers) put(b []byte) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free) < writeBehindKeep {
		p.free = append(p.free, b[:0])
	}
}

// WriteBehind is the io.Writer a table build writes through: bytes are
// copied into a buffer, and full buffers are written to the file by a
// goroutine of the WriteBehind's own while the producer fills the next.
// Writes reach the file in order. A file-write error stops further writes
// and is reported by the producer's next Write that needs a buffer, and by
// Close; the producer must Close before it syncs, closes or removes the
// file.
type WriteBehind struct {
	pool *WriteBuffers
	cur  []byte
	full chan []byte
	// free carries written buffers back, each with the file-write error so
	// far: the channel is the only thing the two goroutines share.
	free chan writtenBuf
	err  error
}

type writtenBuf struct {
	buf []byte
	err error
}

// NewWriter starts a write-behind stage in front of w.
func (p *WriteBuffers) NewWriter(w io.Writer) *WriteBehind {
	wb := &WriteBehind{
		pool: p,
		cur:  p.get(),
		full: make(chan []byte, writeBehindDepth-1),
		free: make(chan writtenBuf, writeBehindDepth),
	}
	for i := 1; i < writeBehindDepth; i++ {
		wb.free <- writtenBuf{buf: p.get()}
	}
	go func() {
		var err error
		for buf := range wb.full {
			for rest := buf; len(rest) > 0 && err == nil; {
				piece := rest[:min(len(rest), writePieceBytes)]
				_, err = w.Write(piece)
				rest = rest[len(piece):]
			}
			wb.free <- writtenBuf{buf: buf[:0], err: err}
		}
		close(wb.free)
	}()
	return wb
}

// Write implements io.Writer. It never retains p.
func (wb *WriteBehind) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if wb.err != nil {
			return 0, wb.err
		}
		m := copy(wb.cur[len(wb.cur):cap(wb.cur)], p)
		wb.cur = wb.cur[:len(wb.cur)+m]
		p = p[m:]
		if len(wb.cur) == cap(wb.cur) {
			wb.full <- wb.cur
			r := <-wb.free
			wb.cur = r.buf
			wb.note(r.err)
		}
	}
	return n, nil
}

func (wb *WriteBehind) note(err error) {
	if err != nil && wb.err == nil {
		wb.err = fmt.Errorf("sstable: write behind: %w", err)
	}
}

// Close writes what is buffered, waits for the file writes to finish, hands
// the buffers back and returns the first write error. The WriteBehind is
// unusable afterwards.
func (wb *WriteBehind) Close() error {
	if len(wb.cur) > 0 {
		wb.full <- wb.cur
	} else {
		wb.pool.put(wb.cur)
	}
	close(wb.full)
	wb.cur = nil
	for r := range wb.free {
		wb.note(r.err)
		wb.pool.put(r.buf)
	}
	return wb.err
}
