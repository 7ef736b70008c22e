package kvnet

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// stampStripes is how many stripes a server hashes the keys of versioned
// writes over: enough that concurrent writes to different keys rarely
// share one.
const stampStripes = 256

// stampStripe is one stripe of a server's keys. Its lock serialises the
// versioned writes to them: the check of a key's stored stamp and the write
// that beats it happen under one lock, so two writes to the key cannot both
// pass the check against the same stored record. Its floor is at least the
// stamp of every record the engine holds under the stripe's keys, so a
// versioned put stamped above it cannot lose and skips reading its key's
// stored stamp: the common case, a fresh write, even when another
// router's writes to other stripes are stamped higher.
type stampStripe struct {
	sync.Mutex
	floor atomic.Uint64
}

// stampFloors are a server's stripes. One scan of the engine finds their
// floors, started in the background at the first versioned write (a server
// that never takes one never scans); until the scan has finished every
// versioned put reads its stored stamp, so no write waits for the scan.
// Every put the server applies raises its key's floor before it lands (a
// write that fails may have landed all the same). That assumes the server
// is the engine's only writer, as a cluster node's is.
type stampFloors struct {
	stripes        [stampStripes]stampStripe
	started, known atomic.Bool
}

// raise lifts the floor of key's stripe to the stamp of value, if value is
// a record.
func (f *stampFloors) raise(key, value []byte) {
	stamp, ok := RecordStamp(value)
	if !ok {
		return
	}
	fl := &f.stripes[stripeOf(key)].floor
	for v := fl.Load(); stamp > v && !fl.CompareAndSwap(v, stamp); v = fl.Load() {
	}
}

// floor returns the floor of key's stripe, or the largest stamp while the
// floors are unknown: no put is then stamped above it.
func (f *stampFloors) floor(key []byte) uint64 {
	if !f.known.Load() {
		return math.MaxUint64
	}
	return f.stripes[stripeOf(key)].floor.Load()
}

// findFloor starts the scan for the stamp floors, the first time it is
// called: in the background and under the server's own context, so no
// request waits for it and no request's cancellation stops it. If the scan
// fails the floors stay unknown, and every versioned put goes on reading
// its stored stamp. Callers serve a request, so s.wg is above zero.
func (s *Server) findFloor() {
	f := &s.stamps
	if f.started.Load() || !f.started.CompareAndSwap(false, true) {
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		err := s.db.RangeContext(s.baseCtx, nil, nil, func(key, value []byte) error {
			f.raise(key, value)
			return nil
		})
		f.known.Store(err == nil)
	}()
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
// batch's puts, the stripes they lock and the encoded count of puts
// applied.
type versioned struct {
	applied []byte
	ops     []BatchOp
	stripes []uint16
}

// writeVersioned serves OpVersionedWrite. It takes the stripe locks of the
// batch's keys in stripe order, so two batches never wait on each other in
// a cycle. Under them it drops every put that does not beat its key's
// stored stamp, and of several puts of one key all but the highest
// stamped; the rest go to the engine as one batch. A put stamped above its
// stripe's floor beats whatever is stored; for any other the stored stamp
// is read (see storedStamp). The floors rise only once every put is
// decided: a put applied here must not send a later put of the batch to
// read what is not yet stored. It returns how many puts it applied.
func (w *worker) writeVersioned(ctx context.Context, body []byte) (int, error) {
	v := &w.versioned
	v.ops = v.ops[:0]
	valid := true
	err := DecodeBatch(body, func(del bool, key, value []byte) {
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
		s.stamps.stripes[i].Lock()
	}
	defer func() {
		for _, i := range v.stripes {
			s.stamps.stripes[i].Unlock()
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
	n := 0
	for i, op := range v.ops {
		if i+1 < len(v.ops) && bytes.Equal(op.Key, v.ops[i+1].Key) {
			continue // the next put of the key stamps at least as high
		}
		stamp, _ := RecordStamp(op.Value)
		if stamp <= s.stamps.floor(op.Key) {
			stored, err := s.storedStamp(ctx, op.Key)
			if err != nil {
				return 0, err
			}
			if stamp <= stored {
				continue
			}
		}
		v.ops[n] = op
		n++
	}
	if n == 0 {
		return 0, nil
	}
	for _, op := range v.ops[:n] { // into the batch serve left empty
		s.stamps.raise(op.Key, op.Value)
		w.batch.Put(op.Key, op.Value)
	}
	if err := s.db.WriteContext(ctx, &w.batch); err != nil {
		return 0, err
	}
	return n, nil
}

// storedStamp returns the stamp of the record the engine holds under key:
// 0 if it holds none, or a value that is not a record.
func (s *Server) storedStamp(ctx context.Context, key []byte) (uint64, error) {
	value, err := s.db.GetContext(ctx, key)
	if errors.Is(err, ErrNotFound) {
		return 0, nil
	}
	stamp, _ := RecordStamp(value)
	return stamp, err
}
