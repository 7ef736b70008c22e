package kvnet

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// stampStripes is how many locks a server hashes the keys of versioned
// writes over: enough that concurrent writes to different keys rarely
// share one.
const stampStripes = 256

// stampLocks serialise a server's versioned writes per key, striped: the
// check of a key's stored stamp and the write that beats it happen under
// one lock, so two writes to the key cannot both pass the check against
// the same stored record.
type stampLocks [stampStripes]sync.Mutex

// stampFloor is at least the stamp of every record the engine holds, so a
// versioned put stamped above it cannot lose and skips the read of its
// key's stored stamp: the common case, a fresh write. One scan of the
// engine finds it, started in the background at the first versioned write
// (a server that never takes one never scans); until the scan has finished
// every versioned put reads its stored stamp, so no write waits for the
// scan. Every put the server applies raises the floor before it lands (a
// write that fails may have landed all the same). That assumes the server
// is the engine's only writer, as a cluster node's is.
type stampFloor struct {
	started, known atomic.Bool
	v              atomic.Uint64
}

// raise lifts the floor to the stamp of value, if value is a record.
func (f *stampFloor) raise(value []byte) {
	if stamp, ok := RecordStamp(value); ok {
		f.raiseTo(stamp)
	}
}

func (f *stampFloor) raiseTo(stamp uint64) {
	for v := f.v.Load(); stamp > v && !f.v.CompareAndSwap(v, stamp); v = f.v.Load() {
	}
}

// findFloor starts the scan for the stamp floor, the first time it is
// called: in the background and under the server's own context, so no
// request waits for it and no request's cancellation stops it. If the scan
// fails the floor stays unknown, and every versioned put goes on reading
// its stored stamp. Callers serve a request, so s.wg is above zero.
func (s *Server) findFloor() {
	f := &s.floor
	if f.started.Load() || !f.started.CompareAndSwap(false, true) {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		err := s.db.RangeContext(s.baseCtx, nil, nil, func(_, value []byte) error {
			f.raise(value)
			return nil
		})
		f.known.Store(err == nil)
	}()
}

// get returns the floor, or the largest stamp while it is unknown: no put
// is then stamped above it.
func (f *stampFloor) get() uint64 {
	if !f.known.Load() {
		return math.MaxUint64
	}
	return f.v.Load()
}

// stripeOf hashes key (FNV-1a) onto a stripe.
func stripeOf(key []byte) uint16 {
	h := uint32(2166136261)
	for _, c := range key {
		h ^= uint32(c)
		h *= 16777619
	}
	return uint16(h % stampStripes)
}

// versioned is a worker's scratch for OpVersionedWrite, kept from request
// to request so that one allocates nothing in the steady state: the
// batch's puts, the stripes they lock, the one-key scan that reads a
// stored stamp — its exclusive end, its result and its callback, bound
// once — and the encoded count of puts applied.
type versioned struct {
	applied     []byte
	ops         []BatchOp
	stripes     []uint16
	end         []byte
	stamp       uint64
	readStampFn func(key, value []byte) error
}

// writeVersioned serves OpVersionedWrite. It takes the stripe locks of the
// batch's keys in stripe order, so two batches never wait on each other in
// a cycle. Under them it drops every put that does not beat its key's
// stored stamp, and of several puts of one key all but the highest
// stamped; the rest go to the engine as one batch. A put stamped above the
// floor beats whatever is stored; for any other the stored stamp is read,
// with a scan of [key, key+"\x00"): Engine has no point read that does not
// copy the value, and a stored value that is not a record counts as stamp
// 0. It returns how many puts it applied.
func (w *worker) writeVersioned(ctx context.Context, body []byte) (int, error) {
	v := &w.versioned
	v.ops = v.ops[:0]
	valid := true
	err := decodeBatch(body, func(del bool, key, value []byte) {
		_, ok := RecordStamp(value)
		valid = valid && ok && !del
		v.ops = append(v.ops, BatchOp{Key: key, Value: value})
	})
	if err == nil && !valid {
		err = fmt.Errorf("kvnet: versioned write of a delete or an unstamped value: %w", ErrProtocol)
	}
	if err != nil {
		return 0, err
	}
	s := w.c.s
	s.findFloor()
	v.stripes = v.stripes[:0]
	for _, op := range v.ops {
		v.stripes = append(v.stripes, stripeOf(op.Key))
	}
	slices.Sort(v.stripes)
	v.stripes = slices.Compact(v.stripes)
	for _, i := range v.stripes {
		s.stamps[i].Lock()
	}
	defer func() {
		for _, i := range v.stripes {
			s.stamps[i].Unlock()
		}
	}()

	slices.SortFunc(v.ops, func(a, b BatchOp) int {
		if c := bytes.Compare(a.Key, b.Key); c != 0 {
			return c
		}
		sa, _ := RecordStamp(a.Value)
		sb, _ := RecordStamp(b.Value)
		return cmp.Compare(sa, sb)
	})
	w.batch.Reset()
	floor, top := s.floor.get(), uint64(0)
	for i, op := range v.ops {
		if i+1 < len(v.ops) && bytes.Equal(op.Key, v.ops[i+1].Key) {
			continue // the next put of the key stamps at least as high
		}
		stamp, _ := RecordStamp(op.Value)
		if stamp <= floor {
			stored, err := w.storedStamp(ctx, op.Key)
			if err != nil {
				return 0, err
			}
			if stamp <= stored {
				continue
			}
		}
		w.batch.Put(op.Key, op.Value)
		top = max(top, stamp)
	}
	if w.batch.Empty() {
		return 0, nil
	}
	s.floor.raiseTo(top)
	if err := s.db.WriteContext(ctx, &w.batch); err != nil {
		return 0, err
	}
	return w.batch.Len(), nil
}

// storedStamp returns the stamp of the record the engine holds under key,
// 0 if none.
func (w *worker) storedStamp(ctx context.Context, key []byte) (uint64, error) {
	v := &w.versioned
	if v.readStampFn == nil {
		v.readStampFn = w.readStamp
	}
	v.end = append(append(v.end[:0], key...), 0)
	v.stamp = 0
	err := w.c.s.db.RangeContext(ctx, key, v.end, v.readStampFn)
	return v.stamp, err
}

func (w *worker) readStamp(_, value []byte) error {
	w.versioned.stamp, _ = RecordStamp(value)
	return nil
}
