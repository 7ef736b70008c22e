package cluster

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/kverr"
	"repro/internal/kvnet"
)

// Replica versioning. Every user value a Router stores on a node is
// wrapped in a small envelope — the Record — carrying a hybrid
// logical-clock stamp and a tombstone flag. The stamp makes replica
// divergence detectable (a quorum read compares versions and repairs the
// stale copies) and conflict resolution deterministic (last writer wins,
// highest stamp is the winner). Tombstones make deletes replicable: a
// delete is a versioned write like any other, so a replica that missed it
// cannot resurrect the key through read repair.

// hlc is a hybrid logical clock: stamps are wall-clock milliseconds in
// the high 48 bits and a logical counter in the low 16, advanced by CAS
// so stamps from one clock are strictly monotonic even when the wall
// clock stalls or steps backwards. Observing stamps from other routers
// keeps clocks loosely coupled without coordination.
type hlc struct {
	last atomic.Uint64
}

const hlcLogicalBits = 16

// Next returns a stamp strictly greater than every stamp this clock has
// issued or observed.
func (c *hlc) Next() uint64 {
	for {
		last := c.last.Load()
		now := uint64(time.Now().UnixMilli()) << hlcLogicalBits
		next := now
		if next <= last {
			next = last + 1
		}
		if c.last.CompareAndSwap(last, next) {
			return next
		}
	}
}

// Observe advances the clock past a stamp seen on a replica, so this
// router's next write outranks it.
func (c *hlc) Observe(v uint64) {
	for {
		last := c.last.Load()
		if v <= last || c.last.CompareAndSwap(last, v) {
			return
		}
	}
}

// Record is the versioned envelope around a user value as stored on a
// replica node.
type Record struct {
	Version   uint64
	Tombstone bool
	Value     []byte
}

// Record wire layout: kvnet's record envelope (format byte, flags byte,
// big-endian version, then the raw user value), so a node can read a
// record's stamp (kvnet.RecordStamp) and keep the highest; flags bit 0
// marks a tombstone.
const (
	recordHdrLen    = kvnet.RecordHeaderLen
	recordTombstone = 0x01
)

// AppendTo appends the serialized record to dst.
func (r Record) AppendTo(dst []byte) []byte {
	flags := byte(0)
	if r.Tombstone {
		flags = recordTombstone
	}
	dst = append(dst, kvnet.RecordFormat, flags)
	dst = binary.BigEndian.AppendUint64(dst, r.Version)
	return append(dst, r.Value...)
}

// decodeRecord parses a stored record. A malformed envelope means the
// value was written around the Router (or damaged), which the cluster
// treats as corruption: the versioning invariant it relies on is gone.
func decodeRecord(b []byte) (Record, error) {
	version, ok := kvnet.RecordStamp(b)
	if !ok {
		return Record{}, fmt.Errorf("cluster: undecodable replica record (%d bytes): %w", len(b), kverr.ErrCorrupt)
	}
	return Record{
		Version:   version,
		Tombstone: b[1]&recordTombstone != 0,
		Value:     b[recordHdrLen:],
	}, nil
}
