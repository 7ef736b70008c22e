// Package cluster replicates a key space over multiple kvnet servers —
// the deployment shape the paper assumes: "A given server stores multiple
// keys" and runs compaction locally over its own sstables (Section 1).
// Consistent hashing places every key on a replica set of N distinct
// nodes, and the Router is a quorum client over those sets: writes fan
// out to all N replicas and acknowledge at W; reads ask R of the N — a
// different R each time, so every replica keeps being compared — and
// resolve the newest version among the answers (R+W > N, so any R
// replicas include one that took any acknowledged write). A read widens
// only when it has to: it hedges to the next replica when one it asked
// fails or stays silent, and when the R answers disagree it repairs the
// stale replicas it asked before answering, so a value once returned is
// on R replicas and a client never reads backwards (see quorumOp.get for
// exactly what is and is not promised). A ping-based failure detector
// routes requests away from dead peers, and writes a down replica misses
// park as hints on live nodes and replay when it returns (hinted
// handoff). Maintenance operations (flush, major compaction) fan out
// cluster-wide, so the compaction strategies can be exercised per node —
// compaction stays a purely local decision on every replica.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/keyhash"
)

// Ring is a consistent-hash ring with virtual nodes. It is not safe for
// concurrent mutation; the Router builds its ring once and only reads it.
//
// Every node gets a dense id when it is added — its position in names —
// so the layers above can keep per-node state in slices and per-operation
// state in small arrays instead of maps keyed by address. Ids are never
// reused: a removed node's slot stays behind, and adding it again
// appends a new one.
type Ring struct {
	replicas int
	vnodes   []vnode
	nodes    map[string]int // live node name -> id
	names    []string       // id -> name, append-only
}

type vnode struct {
	hash uint64
	id   int
}

// NewRing creates a ring with the given number of virtual nodes per
// physical node; more virtual nodes smooth the key distribution. replicas
// must be positive (64 is a reasonable default).
func NewRing(replicas int) *Ring {
	if replicas <= 0 {
		replicas = 64
	}
	return &Ring{replicas: replicas, nodes: make(map[string]int)}
}

// AddNode inserts a node (idempotent).
func (r *Ring) AddNode(name string) {
	if _, ok := r.nodes[name]; ok {
		return
	}
	id := len(r.names)
	r.names = append(r.names, name)
	r.nodes[name] = id
	for i := 0; i < r.replicas; i++ {
		r.vnodes = append(r.vnodes, vnode{hash: keyhash.Placement(fmt.Appendf(nil, "%s#%d", name, i)), id: id})
	}
	sort.Slice(r.vnodes, func(a, b int) bool { return r.vnodes[a].hash < r.vnodes[b].hash })
}

// AppendReplicaIDs appends to dst the ids of the n distinct nodes
// replicating key: the ring walk clockwise from the key's position,
// skipping virtual nodes of already chosen physical nodes. The first member
// is the key's primary owner. Fewer than n nodes in the ring yields all of
// them (a degenerate set the caller's quorums clamp to). It allocates
// nothing when dst has room, and replica sets are tiny, so members already
// chosen are found by scanning the ones appended so far.
//
// The walk order gives replication the same minimal-movement property as
// single-owner consistent hashing: adding or removing a node changes a
// key's replica set only where that node enters or leaves the walk — the
// surviving members keep their positions.
func (r *Ring) AppendReplicaIDs(dst []int, key []byte, n int) []int {
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	if n <= 0 {
		return dst
	}
	h := keyhash.Placement(key)
	i := sort.Search(len(r.vnodes), func(i int) bool { return r.vnodes[i].hash >= h })
	base := len(dst)
walk:
	for j := 0; j < len(r.vnodes) && len(dst)-base < n; j++ {
		id := r.vnodes[(i+j)%len(r.vnodes)].id
		for _, chosen := range dst[base:] {
			if chosen == id {
				continue walk
			}
		}
		dst = append(dst, id)
	}
	return dst
}
