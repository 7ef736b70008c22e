package cluster

import (
	"errors"
	"testing"
)

// TestHealthEpochGuardDiscardsStaleVerdicts pins the failure detector's
// race defense: a demotion verdict carries the up-epoch it observed, and
// a promotion in between invalidates it. Without this, a slow goroutine
// delivering a failure from before a node's restart re-demotes the
// recovered node and fails quorums that were healthy.
func TestHealthEpochGuardDiscardsStaleVerdicts(t *testing.T) {
	h := newHealth(Backoff{}, []string{"n1"})
	const n1 = 0
	errBoom := errors.New("boom")

	// A request snapshots the epoch, the node crashes and recovers (one
	// successful ping) before the failure verdict lands: stale, discarded.
	gen := h.generation(n1)
	h.markUp(n1)
	if h.markDown(n1, gen, errBoom) {
		t.Fatal("stale verdict transitioned the node down")
	}
	if h.isDown(n1) {
		t.Fatal("stale verdict demoted a recovered node")
	}

	// A fresh verdict against the current epoch demotes as usual.
	gen = h.generation(n1)
	if !h.markDown(n1, gen, errBoom) {
		t.Fatal("fresh verdict did not transition the node down")
	}
	if !h.isDown(n1) {
		t.Fatal("fresh verdict did not demote the node")
	}
	if got := h.downReasons()["n1"]; !errors.Is(got, errBoom) {
		t.Fatalf("downReasons = %v, want %v", got, errBoom)
	}

	// Every promotion advances the epoch, so each successful ping
	// invalidates all verdicts observed before it — even consecutive ones.
	gen = h.generation(n1)
	h.markUp(n1)
	h.markUp(n1)
	if h.markDown(n1, gen, errBoom) || h.isDown(n1) {
		t.Fatal("verdict from before two promotions demoted the node")
	}
}
