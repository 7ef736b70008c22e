package cluster

import (
	"sync"
	"sync/atomic"
	"time"
)

// health is the router's failure detector state: one record per node,
// indexed by the node's ring id, flipped down by failed probes or failed
// user requests and back up by a successful probe. Down nodes are probed
// on a jittered exponential backoff — a crashed peer is retried gently,
// not hammered — while up nodes are probed every ping interval. The state
// machine is deliberately pessimistic-fast, optimistic-slow: one
// transport failure demotes a node immediately (so user requests stop
// paying its timeout), and only a successful ping promotes it back.
//
// Transitions take mu; the two facts every request asks — is the node
// down, and what is its up-epoch — are atomics written under it, so the
// request path reads them without a lock.
type health struct {
	backoff backoff

	mu    sync.Mutex
	nodes []nodeHealth
}

type nodeHealth struct {
	name string
	down atomic.Bool
	// gen is the node's up-epoch: it advances every time the node is
	// promoted. A demotion verdict carries the epoch it observed and is
	// discarded if the node has been promoted since — otherwise a slow
	// goroutine delivering a failure from before a restart would re-demote
	// a recovered node (and with it, fail quorums that were healthy).
	gen atomic.Uint64

	// failures counts consecutive failed probes while down; it indexes
	// the backoff schedule for nextProbe. lastErr is the failure that
	// caused the most recent demotion, kept for diagnostics (operators
	// asking "why is this node down?"). All three are guarded by mu.
	failures  int
	nextProbe time.Time
	lastErr   error
}

func newHealth(probeBackoff backoff, names []string) *health {
	h := &health{backoff: probeBackoff, nodes: make([]nodeHealth, len(names))}
	for i, name := range names {
		h.nodes[i].name = name
	}
	return h
}

// generation returns node's current up-epoch. Callers snapshot it
// before attempting a request and hand it back to markDown with the
// verdict, so that a failure observed before a promotion cannot demote
// the node after it.
func (h *health) generation(node int) uint64 { return h.nodes[node].gen.Load() }

// isDown reports node's current state.
func (h *health) isDown(node int) bool { return h.nodes[node].down.Load() }

// markDown records a failed probe or request against node, remembering
// the error for diagnostics. gen must be the node's generation from
// when the failing attempt began; a stale verdict (the node was
// promoted since) is discarded. It reports whether this call
// transitioned the node up → down.
func (h *health) markDown(node int, gen uint64, err error) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := &h.nodes[node]
	if s.gen.Load() != gen {
		return false
	}
	transition := !s.down.Load()
	s.down.Store(true)
	s.failures++
	s.nextProbe = time.Now().Add(h.backoff.delay(s.failures - 1))
	s.lastErr = err
	return transition
}

// markUp records a successful probe against node. It reports whether
// this call transitioned the node down → up.
func (h *health) markUp(node int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := &h.nodes[node]
	transition := s.down.Load()
	s.down.Store(false)
	s.failures = 0
	s.nextProbe = time.Time{}
	s.gen.Add(1)
	return transition
}

// downNodes returns the currently-down node names in ring-id order.
func (h *health) downNodes() []string {
	var out []string
	for i := range h.nodes {
		if s := &h.nodes[i]; s.down.Load() {
			out = append(out, s.name)
		}
	}
	return out
}

// dueProbes returns the nodes worth pinging right now: every up node
// (the steady-state liveness check) plus the down nodes whose backoff
// window has elapsed.
func (h *health) dueProbes(now time.Time) []int {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]int, 0, len(h.nodes))
	for i := range h.nodes {
		if s := &h.nodes[i]; !s.down.Load() || !now.Before(s.nextProbe) {
			out = append(out, i)
		}
	}
	return out
}
