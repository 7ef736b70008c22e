// Package reffix exercises the refbalance analyzer: every acquired
// reference is released on every path.
package reffix

import "errors"

var errStale = errors.New("stale")

type view struct{ pins int }

func (v *view) unpin()   {}
func (v *view) seq() int { return 0 }

type Snapshot struct{}

func (s *Snapshot) Release()    {}
func (s *Snapshot) stale() bool { return false }

type iter struct{}

func (it *iter) valid() bool { return false }

type db struct{ v *view }

func (d *db) pinView() (*view, error)      { return d.v, nil }
func (d *db) Snapshot() (*Snapshot, error) { return &Snapshot{}, nil }
func (d *db) NewIterator(start, end []byte) (*iter, func(), error) {
	return &iter{}, func() {}, nil
}
func (d *db) pinAt() (*view, uint64, error) { return d.v, 0, nil }

func step() error { return nil }

// LeakOnError releases on the happy path but not on the mid-function error
// return — the exact bug class this analyzer exists for.
func LeakOnError(d *db) error {
	v, err := d.pinView() // want `view pin "v" acquired from pinView is not released on every path`
	if err != nil {
		return err
	}
	if err := step(); err != nil {
		return err
	}
	v.unpin()
	return nil
}

// DeferRelease is the canonical safe shape: the error-guard return right
// after the acquisition is exempt (nothing was pinned), and the defer
// covers every later path.
func DeferRelease(d *db) error {
	v, err := d.pinView()
	if err != nil {
		return err
	}
	defer v.unpin()
	if err := step(); err != nil {
		return err
	}
	return nil
}

// DeferClosureRelease releases from inside a deferred function literal.
func DeferClosureRelease(d *db) error {
	v, err := d.pinView()
	if err != nil {
		return err
	}
	defer func() {
		v.unpin()
	}()
	return step()
}

// BranchRelease releases explicitly in both branches.
func BranchRelease(d *db, fast bool) int {
	v, err := d.pinView()
	if err != nil {
		return -1
	}
	if fast {
		v.unpin()
		return 0
	}
	n := v.seq()
	v.unpin()
	return n
}

// PinAndReturn hands the pinned view to the caller, who owns the release.
func PinAndReturn(d *db) (*view, error) {
	v, err := d.pinView()
	if err != nil {
		return nil, err
	}
	return v, nil
}

// DeferHelper is the tricky negative: the release lives inside a helper
// that is deferred. The analyzer cannot see through the call, but a
// deferred hand-off transfers ownership and must not be reported.
func DeferHelper(d *db) error {
	v, err := d.pinView()
	if err != nil {
		return err
	}
	defer cleanup(v)
	return step()
}

func cleanup(v *view) { v.unpin() }

type cache struct{ v *view }

// StoreView parks the pin in a longer-lived structure; releasing becomes
// that structure's job.
func StoreView(d *db, c *cache) error {
	v, err := d.pinView()
	if err != nil {
		return err
	}
	c.v = v
	return nil
}

// SnapLeak forgets Release on the stale-check return.
func SnapLeak(d *db) (string, error) {
	s, err := d.Snapshot() // want `snapshot "s" acquired from Snapshot is not released on every path`
	if err != nil {
		return "", err
	}
	if s.stale() {
		return "", errStale
	}
	s.Release()
	return "ok", nil
}

// IterLeak forgets to call the release func on the invalid-iterator path.
func IterLeak(d *db) error {
	it, release, err := d.NewIterator(nil, nil) // want `iterator release func "release" acquired from NewIterator is not released on every path`
	if err != nil {
		return err
	}
	if !it.valid() {
		return errStale
	}
	release()
	return nil
}

// IterDefer covers every path by deferring the release func.
func IterDefer(d *db) error {
	it, release, err := d.NewIterator(nil, nil)
	if err != nil {
		return err
	}
	defer release()
	if !it.valid() {
		return errStale
	}
	return nil
}

// AtLeak leaves the view pinned on the stale-bound return.
func AtLeak(d *db) error {
	v, bound, err := d.pinAt() // want `view pin "v" acquired from pinAt is not released on every path`
	if err != nil {
		return err
	}
	if bound < uint64(v.seq()) {
		return errStale
	}
	v.unpin()
	return nil
}

// AtDefer unpins the view on every path via defer.
func AtDefer(d *db) (int, error) {
	v, bound, err := d.pinAt()
	if err != nil {
		return 0, err
	}
	defer v.unpin()
	if bound == 0 {
		return 0, errStale
	}
	return v.seq(), nil
}

// AtHandOff returns the unpin as a method value: the caller owns it.
func AtHandOff(d *db) (func(), error) {
	v, _, err := d.pinAt()
	if err != nil {
		return nil, err
	}
	return v.unpin, nil
}

type handle struct{ refs int }

func (h *handle) Ref() *handle { h.refs++; return h }
func (h *handle) Unref()       { h.refs-- }
func (h *handle) ok() bool     { return true }

// RefLeak takes a ref and drops it on the failure return.
func RefLeak(h *handle) error {
	g := h.Ref() // want `ref "g" acquired from Ref is not released on every path`
	if !g.ok() {
		return errStale
	}
	g.Unref()
	return nil
}

type counter struct{ n int }

// Ref here is a name collision: it returns an int, which has no Unref, so
// the type check keeps the analyzer quiet.
func (c *counter) Ref() int { return c.n }

func CountRef(c *counter) int {
	n := c.Ref()
	return n + 1
}

type block struct{ data []byte }

func (b *block) Release()     {}
func (b *block) Data() []byte { return b.data }

type blockCache struct{}

func (c *blockCache) Get(off int) (*block, bool)  { return &block{}, true }
func (c *blockCache) Peek(off int) (*block, bool) { return &block{}, true }
func (c *blockCache) Alloc(n int) *block          { return &block{} }
func (c *blockCache) Add(b *block)                {}

type reader struct{ blocks *blockCache }

func (r *reader) read(p []byte) error { return nil }

// readBlock is the reader's block read: a hit is handed to the caller
// inside the comma-ok guard (outside it nothing was pinned), and a fill
// releases its buffer on every failure before publishing it.
func (r *reader) readBlock(off int) (*block, error) {
	if b, ok := r.blocks.Get(off); ok {
		return b, nil
	}
	b := r.blocks.Alloc(4096)
	if err := r.read(b.Data()); err != nil {
		b.Release()
		return nil, err
	}
	r.blocks.Add(b)
	return b, nil
}

// publish is the writer's write-through: the cache takes a reference of its
// own in Add, and the publisher releases the one Alloc gave it.
func (c *blockCache) publish(body []byte) {
	b := c.Alloc(len(body))
	copy(b.Data(), body)
	c.Add(b)
	b.Release()
}

// PublishLeak treats Add as a hand-off: the cache's reference is not the
// publisher's, which is never dropped.
func (c *blockCache) PublishLeak(body []byte) {
	b := c.Alloc(len(body)) // want `block pin "b" acquired from Alloc is not released on every path`
	copy(b.Data(), body)
	c.Add(b)
}

// scanIter is the merge iterator: it reads around the cache.
type scanIter struct {
	r       *reader
	scratch *blockCache
	cold    bool
}

// readBlock is its read: a resident block is pinned where it lies, a miss
// is read into a buffer of the iterator's own (private: the scratch cache's
// Add publishes nothing), released if the read fails and otherwise handed
// to the caller like a hit.
func (it *scanIter) readBlock(off int) (*block, error) {
	if b, ok := it.r.blocks.Peek(off); ok {
		it.cold = false
		return b, nil
	}
	it.cold = true
	b := it.scratch.Alloc(4096)
	if err := it.r.read(b.Data()); err != nil {
		b.Release()
		return nil, err
	}
	it.scratch.Add(b)
	return b, nil
}

// PeekLeak measures a resident block and forgets the pin Peek took.
func (r *reader) PeekLeak(off int) int {
	if b, ok := r.blocks.Peek(off); ok { // want `block pin "b" acquired from Peek is not released on every path`
		n := len(b.Data())
		return n
	}
	return 0
}

// ScanLeak drops the private buffer's pin when the block turns out empty.
func (it *scanIter) ScanLeak(off int) (int, error) {
	b, err := it.readBlock(off) // want `block pin "b" acquired from readBlock is not released on every path`
	if err != nil {
		return 0, err
	}
	if len(b.Data()) == 0 {
		return 0, errStale
	}
	n := len(b.Data())
	b.Release()
	return n, nil
}

// FillLeak forgets the buffer when the read into it fails.
func (r *reader) FillLeak(off int) (*block, error) {
	b := r.blocks.Alloc(4096) // want `block pin "b" acquired from Alloc is not released on every path`
	if err := r.read(b.Data()); err != nil {
		return nil, err
	}
	return b, nil
}

// HitLeak drops a cache hit's pin on the empty-block return.
func (r *reader) HitLeak(off int) int {
	if b, ok := r.blocks.Get(off); ok { // want `block pin "b" acquired from Get is not released on every path`
		if len(b.Data()) == 0 {
			return 0
		}
		n := len(b.Data())
		b.Release()
		return n
	}
	return -1
}

// BlockLeak is the early-error-return leak on a block pin: the search
// fails after the block was pinned, and the pin is dropped.
func BlockLeak(r *reader, off int) (byte, error) {
	b, err := r.readBlock(off) // want `block pin "b" acquired from readBlock is not released on every path`
	if err != nil {
		return 0, err
	}
	if len(b.Data()) == 0 {
		return 0, errStale
	}
	c := b.Data()[0]
	b.Release()
	return c, nil
}

// BlockProbe is the engine's probe loop: a miss continues from inside the
// error guard (no pin to release there), a loser is released, the winner
// changes hands.
func BlockProbe(r *reader, offs []int) (byte, error) {
	var best *block
	defer func() {
		if best != nil {
			best.Release()
		}
	}()
	for _, off := range offs {
		b, err := r.readBlock(off)
		if err != nil {
			if err == errStale {
				continue
			}
			return 0, err
		}
		if len(b.Data()) == 0 {
			b.Release()
			continue
		}
		best = b
	}
	if best == nil {
		return 0, errStale
	}
	return best.Data()[0], nil
}

// SuppressedLeak shows the escape hatch: a deliberate long-lived pin with a
// stated reason.
func SuppressedLeak(d *db) error {
	v, err := d.pinView() //lint:allow refbalance fixture proves suppression works on a leak report
	if err != nil {
		return err
	}
	_ = v.seq()
	return nil
}

// --- pooled quorum ops (the cluster router) --------------------------------

type router struct{}

type quorumOp struct{}

func (rt *router) acquireOp() *quorumOp { return &quorumOp{} }
func (o *quorumOp) release()            {}
func (o *quorumOp) write() error        { return nil }

// OpDeferred is the router's shape: the caller's reference is dropped by a
// defer, whatever the operation returns.
func OpDeferred(rt *router) error {
	o := rt.acquireOp()
	defer o.release()
	return o.write()
}

// OpLeak returns early with the caller's reference still held: the op and
// the deadline timer inside it never go back to the pool.
func OpLeak(rt *router, bad bool) error {
	o := rt.acquireOp() // want `quorum op "o" acquired from acquireOp is not released on every path`
	if bad {
		return errStale
	}
	err := o.write()
	o.release()
	return err
}
