package cluster

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"repro/internal/kverr"
	"repro/internal/kvnet"
)

// Hinted handoff. A write that cannot reach one of its replicas is not
// lost and not blocked: the missed share is parked as a *hint* — a
// regular key-value pair under a reserved key prefix — on a live node,
// and the handoff loop replays it to the target once the target answers
// pings again. Replay is a versioned write, so the target drops a hinted
// record that newer writes (or read repair) have overtaken rather than
// regressing the key.
//
// Hints live in the holders' ordinary keyspace, which buys durability
// for free: they ride the holder's WAL and survive the holder itself
// restarting. User operations are fenced out of the prefix (see
// checkUserKey) and cluster scans filter it.

// hintPrefix is the reserved namespace. Hint key layout:
//
//	hintPrefix | target | 0x00 | stamp(8 BE) | token(4 BE) | seq(8 BE)
//
// target is the node address the hinted write is owed to (addresses
// never contain NUL); stamp/token/seq make keys unique across routers
// parking hints concurrently. The value is an encoded batch of (key,
// record) pairs — see encodeHintBatch; [hintPrefix, hintEnd) is every hint.
const hintPrefix, hintEnd = "\x00\xffcluster.hint\x00", "\x00\xffcluster.hint\x01"

func hintKey(target string, stamp uint64, token uint32, seq uint64) []byte {
	out := make([]byte, 0, len(hintPrefix)+len(target)+1+8+4+8)
	out = append(out, hintPrefix...)
	out = append(out, target...)
	out = append(out, 0)
	out = binary.BigEndian.AppendUint64(out, stamp)
	out = binary.BigEndian.AppendUint32(out, token)
	out = binary.BigEndian.AppendUint64(out, seq)
	return out
}

// hintTarget parses the target node out of a hint key, or "" if the key
// is not a well-formed hint.
func hintTarget(key []byte) string {
	if !bytes.HasPrefix(key, []byte(hintPrefix)) {
		return ""
	}
	rest := key[len(hintPrefix):]
	i := bytes.IndexByte(rest, 0)
	if i <= 0 {
		return ""
	}
	return string(rest[:i])
}

// hintFormat is a hint batch's first byte. It is any byte but
// kvnet.RecordFormat: a holder parks a hint with a plain put, and a value
// that read as a record would lift the holder's stamp floor (see
// kvnet.OpVersionedWrite) to whatever its bytes 2..9 hold — a hinted key's
// first eight bytes, far above any real stamp.
const hintFormat = 0x02

// encodeHintBatch serializes the (key, record) pairs owed to a target:
// hintFormat, uvarint count, then per pair uvarint-length-prefixed key and
// record.
func encodeHintBatch(ops []kvnet.BatchOp) []byte {
	out := []byte{hintFormat}
	out = binary.AppendUvarint(out, uint64(len(ops)))
	for _, op := range ops {
		out = binary.AppendUvarint(out, uint64(len(op.Key)))
		out = append(out, op.Key...)
		out = binary.AppendUvarint(out, uint64(len(op.Value)))
		out = append(out, op.Value...)
	}
	return out
}

func decodeHintBatch(b []byte) ([]kvnet.BatchOp, error) {
	bad := func() ([]kvnet.BatchOp, error) {
		return nil, fmt.Errorf("cluster: undecodable hint batch: %w", kverr.ErrCorrupt)
	}
	if len(b) == 0 || b[0] != hintFormat {
		return bad()
	}
	n, sz := binary.Uvarint(b[1:])
	if sz <= 0 {
		return bad()
	}
	b = b[1+sz:]
	ops := make([]kvnet.BatchOp, 0, n)
	for i := uint64(0); i < n; i++ {
		klen, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < klen {
			return bad()
		}
		key := b[sz : sz+int(klen)]
		b = b[sz+int(klen):]
		vlen, sz := binary.Uvarint(b)
		if sz <= 0 || uint64(len(b)-sz) < vlen {
			return bad()
		}
		val := b[sz : sz+int(vlen)]
		b = b[sz+int(vlen):]
		ops = append(ops, kvnet.BatchOp{Key: key, Value: val})
	}
	return ops, nil
}

// parkHintFor parks target's missed share of a write on a live node, in
// the background — the caller is on a write's latency path (or holds a
// replica goroutine) and parking must not extend it. Holder candidates
// are the other ring nodes starting just past the target (so hints for
// one node spread over its neighbors); the first one that accepts the
// write holds the hint.
func (rt *Router) parkHintFor(target int, ops []kvnet.BatchOp) {
	if len(ops) == 0 {
		return
	}
	key := hintKey(rt.ring.names[target], rt.clock.Next(), rt.token, rt.hintSeq.Add(1))
	value := encodeHintBatch(ops)
	rt.bg.Add(1)
	go func() {
		defer rt.bg.Done()
		if rt.parkEncoded(target, key, value) {
			rt.hintsParked.Add(1)
			return
		}
		// No live holder would take it right now (a kill can make every
		// peer unreachable for a beat). Defer rather than drop: the
		// handoff loop re-parks the queue each sweep.
		rt.deferHint(target, key, value)
	}()
}

// parkEncoded writes an already-encoded hint to the first live holder
// that accepts it. Holder candidates are the other ring nodes starting
// just past the target, so hints for one node spread over its
// neighbors.
func (rt *Router) parkEncoded(target int, key, value []byte) bool {
	for i := 1; i < len(rt.conns); i++ {
		holder := (target + i) % len(rt.conns)
		if rt.health.isDown(holder) {
			continue
		}
		err := rt.do(rt.baseCtx, holder, func(actx context.Context, c *kvnet.Client) error {
			return c.Put(actx, key, value)
		})
		if err == nil {
			return true
		}
	}
	return false
}

// deferredHint is a hint no live holder accepted yet, queued in router
// memory until a sweep can park it durably.
type deferredHint struct {
	target     int
	key, value []byte
}

// maxDeferredHints bounds the in-memory queue; past it the oldest hints
// are dropped and counted, so a long total outage degrades to the old
// behavior instead of growing client memory without limit.
const maxDeferredHints = 4096

func (rt *Router) deferHint(target int, key, value []byte) {
	rt.hintMu.Lock()
	defer rt.hintMu.Unlock()
	rt.deferredHints = append(rt.deferredHints, deferredHint{target: target, key: key, value: value})
	if n := len(rt.deferredHints) - maxDeferredHints; n > 0 {
		rt.deferredHints = append(rt.deferredHints[:0], rt.deferredHints[n:]...)
		rt.hintsDropped.Add(uint64(n))
	}
}

// reparkDeferred retries every queued hint; those still refused go back
// on the queue for the next sweep.
func (rt *Router) reparkDeferred(ctx context.Context) {
	rt.hintMu.Lock()
	pending := rt.deferredHints
	rt.deferredHints = nil
	rt.hintMu.Unlock()
	for i, h := range pending {
		if ctx.Err() != nil {
			for _, rest := range pending[i:] {
				rt.deferHint(rest.target, rest.key, rest.value)
			}
			return
		}
		if rt.parkEncoded(h.target, h.key, h.value) {
			rt.hintsParked.Add(1)
		} else {
			rt.deferHint(h.target, h.key, h.value)
		}
	}
}

// handoffLoop sweeps parked hints every HandoffInterval, and immediately
// when the failure detector promotes a node back up.
func (rt *Router) handoffLoop() {
	defer rt.loops.Done()
	t := time.NewTicker(rt.opts.HandoffInterval)
	defer t.Stop()
	for {
		select {
		case <-rt.baseCtx.Done():
			return
		case <-t.C:
		case <-rt.handoffKick:
		}
		rt.handoffSweep(rt.baseCtx)
	}
}

// Handoff runs one synchronous handoff sweep: every live node is scanned
// for parked hints and each hint whose target is live is replayed and
// deleted. It returns the first error encountered; hints it could not
// deliver stay parked for the next sweep. Tests and operators use it to
// force convergence without waiting for the interval.
func (rt *Router) Handoff(ctx context.Context) error {
	return rt.handoffSweep(ctx)
}

// handoffSweep drains hints from every live holder. Sweeping all nodes —
// not just the ones this router parked on — means a fresh router (or a
// restarted one) delivers hints parked by routers that no longer exist.
func (rt *Router) handoffSweep(ctx context.Context) error {
	rt.reparkDeferred(ctx)
	var first error
	for holder := range rt.conns {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if rt.health.isDown(holder) {
			continue
		}
		if err := rt.drainHolder(ctx, holder); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// drainHolder replays and deletes holder's parked hints in one pass over
// them; a hint whose target is still down stays for a later sweep.
func (rt *Router) drainHolder(ctx context.Context, holder int) error {
	var st kvnet.Stream
	if err := rt.stream(ctx, holder, &st, []byte(hintPrefix), []byte(hintEnd)); err != nil {
		return fmt.Errorf("cluster: hint scan on %s: %w", rt.ring.names[holder], err)
	}
	defer st.Close()
	for ; st.Valid(); st.Next() {
		name := hintTarget(st.Key())
		if name == "" {
			// Not a hint we understand; delete it rather than rescanning
			// it forever.
			rt.deleteHint(ctx, holder, st.Key())
			continue
		}
		// A hint owed to a node outside this router's ring was parked
		// under another membership view; it stays for a router that
		// knows its target. One the target refuses, or vanishes during,
		// stays for the next sweep.
		if target, member := rt.ring.nodes[name]; member && !rt.health.isDown(target) {
			rt.replayHint(ctx, holder, target, st.Key(), st.Value())
		}
	}
	if err := st.Err(); err != nil {
		return fmt.Errorf("cluster: hint scan on %s: %w", rt.ring.names[holder], err)
	}
	return nil
}

// replayHint delivers one hint to its target and deletes it from the
// holder. The hinted records go in one versioned write, which the target
// applies only where they are newer than what it holds, so replaying an
// old hint — or two sweeps replaying hints of one key in either order —
// never regresses a key.
func (rt *Router) replayHint(ctx context.Context, holder, target int, key, value []byte) error {
	ops, err := decodeHintBatch(value)
	if err != nil {
		// The hint itself is damaged; drop it, the data it carried is
		// also on the W-quorum replicas and read repair covers the rest.
		rt.deleteHint(ctx, holder, key)
		return nil
	}
	// A record that does not decode would fail the whole batch; it is
	// dropped like a damaged hint.
	fresh := slices.DeleteFunc(ops, func(op kvnet.BatchOp) bool {
		_, err := decodeRecord(op.Value)
		return err != nil
	})
	err = rt.do(ctx, target, func(actx context.Context, c *kvnet.Client) error {
		_, err := c.WriteVersioned(actx, fresh)
		return err
	})
	if err != nil {
		return err
	}
	if err := rt.deleteHint(ctx, holder, key); err != nil {
		return err
	}
	rt.hintsReplayed.Add(1)
	return nil
}

// deleteHint removes a delivered (or undecodable) hint from its holder.
// This is a node-level delete — hints are router bookkeeping, not
// replicated user data.
func (rt *Router) deleteHint(ctx context.Context, holder int, key []byte) error {
	return rt.do(ctx, holder, func(actx context.Context, c *kvnet.Client) error {
		return c.Delete(actx, key)
	})
}

// PendingHints counts the hints currently parked across all live nodes,
// plus any still deferred in router memory awaiting a holder.
func (rt *Router) PendingHints(ctx context.Context) (int, error) {
	rt.hintMu.Lock()
	total := len(rt.deferredHints)
	rt.hintMu.Unlock()
	for holder := range rt.conns {
		if rt.health.isDown(holder) {
			continue
		}
		var st kvnet.Stream
		err := rt.stream(ctx, holder, &st, []byte(hintPrefix), []byte(hintEnd))
		if err == nil {
			for ; st.Valid(); st.Next() {
				total++
			}
			err = st.Err()
			st.Close()
		}
		if err != nil {
			return total, fmt.Errorf("cluster: hint count on %s: %w", rt.ring.names[holder], err)
		}
	}
	return total, nil
}
