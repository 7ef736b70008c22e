// Package recycle is the engine's one way of reusing objects: a Pool over a
// pointer type whose Put resets the object, panics on a second Put before
// the next Get, and under the Poison test switch drops the object instead.
package recycle

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Poison is a test switch. While it is set a Pool drops what it is handed,
// reset, and the free lists that are not Pools (the block cache's arrays,
// table iterators' key arenas, memtable key slabs) overwrite what they take
// back, so a use after release reads a reset object or poison.
var Poison atomic.Bool

// Scrub overwrites b while Poison is set: a free list that is not a Pool
// calls it on memory it takes back.
func Scrub(b []byte) {
	if Poison.Load() {
		for i := range b {
			b[i] = 0xdb
		}
	}
}

// RetainLimit is the largest buffer a recycled object, or an owner that
// lives as long as a connection, keeps for reuse.
const RetainLimit = 1 << 20

// Trim returns s emptied for reuse, or nil when it is above RetainLimit
// bytes.
func Trim[E any](s []E) []E {
	var e E
	if uintptr(cap(s))*unsafe.Sizeof(e) > RetainLimit {
		return nil
	}
	return s[:0]
}

// Mark, embedded in a type, records that an object is in its Pool.
type Mark struct{ pooled bool }

func (m *Mark) mark() *Mark { return m }

// Recyclable is a pointer to a type that embeds Mark and whose Reset makes
// it what New makes, keeping only buffers passed through Trim.
type Recyclable interface {
	Reset()
	mark() *Mark
}

// Pool is a free list of P's; New makes one when it is empty.
type Pool[P Recyclable] struct {
	New  func() P
	free sync.Pool
}

// Get returns a recycled P, or a new one.
func (p *Pool[P]) Get() P {
	if x, ok := p.free.Get().(P); ok {
		x.mark().pooled = false
		return x
	}
	return p.New()
}

// Put resets x and recycles it; nothing may touch x afterwards. A second
// Put before a Get hands x out again panics.
func (p *Pool[P]) Put(x P) {
	if x.mark().pooled {
		panic("recycle: object put twice")
	}
	x.Reset()
	x.mark().pooled = true
	if !Poison.Load() {
		p.free.Put(x)
	}
}
