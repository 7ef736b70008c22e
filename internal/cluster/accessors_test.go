package cluster

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/kvnet"
)

// Handoff runs one synchronous handoff sweep: every live node is scanned
// for parked hints and each hint whose target is live is replayed and
// deleted. It returns the first error encountered; hints it could not
// deliver stay parked for the next sweep. Tests and operators use it to
// force convergence without waiting for the interval.
func (rt *Router) Handoff(ctx context.Context) error {
	return rt.handoffSweep(ctx)
}

// PendingHints counts the hints currently parked across all live nodes,
// plus any still deferred in router memory awaiting a holder.
func (rt *Router) PendingHints(ctx context.Context) (int, error) {
	rt.hintMu.Lock()
	total := len(rt.deferredHints)
	rt.hintMu.Unlock()
	for holder := range rt.peers {
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

// DownNodes returns the nodes the failure detector currently considers
// unreachable.
func (rt *Router) DownNodes() []string {
	return rt.health.downNodes()
}

// ReplicaNodes returns the full replica set for key.
func (rt *Router) ReplicaNodes(key []byte) []string {
	return rt.ring.ReplicaSet(key, rt.opts.ReplicationFactor)
}

// DownReasons reports, for each node the failure detector currently
// considers down, the error that demoted it.
func (rt *Router) DownReasons() map[string]error {
	return rt.health.downReasons()
}

// RemoveNode deletes a node and its virtual nodes (idempotent).
func (r *Ring) RemoveNode(name string) {
	id, ok := r.nodes[name]
	if !ok {
		return
	}
	delete(r.nodes, name)
	kept := r.vnodes[:0]
	for _, v := range r.vnodes {
		if v.id != id {
			kept = append(kept, v)
		}
	}
	r.vnodes = kept
}

// Nodes returns the node names, sorted.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Lookup returns the node owning key — the first member of its replica
// set — or "" on an empty ring.
func (r *Ring) Lookup(key []byte) string {
	rs := r.ReplicaSet(key, 1)
	if len(rs) == 0 {
		return ""
	}
	return rs[0]
}

// Encode serializes the record.
func (r Record) Encode() []byte {
	return r.AppendTo(make([]byte, 0, recordHdrLen+len(r.Value)))
}

// ReplicaSet is AppendReplicaIDs in node names; an empty ring yields nil.
func (r *Ring) ReplicaSet(key []byte, n int) []string {
	var buf [8]int
	ids := r.AppendReplicaIDs(buf[:0], key, n)
	if len(ids) == 0 {
		return nil
	}
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = r.names[id]
	}
	return out
}

// downReasons returns, for each currently-down node, the error that
// demoted it.
func (h *health) downReasons() map[string]error {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make(map[string]error)
	for i := range h.nodes {
		if s := &h.nodes[i]; s.down.Load() {
			out[s.name] = s.lastErr
		}
	}
	return out
}
