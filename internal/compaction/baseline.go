package compaction

import (
	"slices"
	"sort"
)

// This file holds the compaction policies the paper positions its
// strategies against, as live choosers: Bigtable's count trigger
// (Threshold), Cassandra's size-tiered strategy (SizeTiered), which the
// paper says "bears resemblance to our SMALLESTINPUT heuristic", and the
// LevelDB-style leveled layout (Leveled). They rank by what only a live
// table carries — file size, key range, LSM level — so they run under Plan,
// Pick and PickLive but not under the exact model. SizeTiered and Leveled
// carry their own trigger, Due, which the package's Due asks for them;
// Threshold is due, as every other chooser is, at 2k live tables. When
// nothing is due, which only a full Plan asks about, each merges the k
// smallest tables by size.

// liveSet is a baseline's collection of live nodes, in the order Init and
// Observe delivered them.
type liveSet struct {
	k     int
	nodes []*Node
}

// Init implements Chooser.
func (s *liveSet) Init(leaves []*Node, k int) error {
	s.k, s.nodes = k, slices.Clone(leaves)
	return nil
}

// Observe implements Chooser.
func (s *liveSet) Observe(merged *Node) {
	s.nodes = slices.DeleteFunc(s.nodes, func(nd *Node) bool { return slices.Contains(merged.Children, nd) })
	s.nodes = append(s.nodes, merged)
}

// smallest returns the k smallest live nodes by file size.
func (s *liveSet) smallest() []*Node {
	nodes := bySize(s.nodes)
	return nodes[:groupSize(s.k, len(nodes))]
}

// capped bounds a policy's natural group at the fan-in k.
func (s *liveSet) capped(group []*Node) []*Node { return group[:min(len(group), s.k)] }

// bySize returns nodes ordered by file size, smallest first.
func bySize(nodes []*Node) []*Node {
	out := slices.Clone(nodes)
	sort.Slice(out, func(a, b int) bool { return out[a].Live.SizeBytes < out[b].Live.SizeBytes })
	return out
}

// Threshold is Bigtable's compaction trigger: once 2k tables are live (see
// Due), merge the k smallest.
type Threshold struct{ liveSet }

// Name implements Chooser.
func (c *Threshold) Name() string { return "threshold" }

// Choose implements Chooser.
func (c *Threshold) Choose() ([]*Node, error) { return c.smallest(), nil }

// SizeTiered is Cassandra's STCS: tables are grouped into buckets of similar
// size (within [bucketLow·avg, bucketHigh·avg] of the bucket's running
// average), and the fullest bucket of at least minBucket tables merges, up
// to maxBucket of them and at most k.
type SizeTiered struct{ liveSet }

// bucketLow and bucketHigh bound a size-tiered bucket relative to its
// average size, and minBucket and maxBucket the tables one merge takes:
// Cassandra's defaults.
const (
	bucketLow, bucketHigh = 0.5, 1.5
	minBucket, maxBucket  = 4, 32
)

// Name implements Chooser.
func (c *SizeTiered) Name() string { return "size-tiered" }

// Due reports whether tables warrant a merge.
func (c *SizeTiered) Due(tables []LiveTable) bool { return c.bucket(liveLeaves(tables)) != nil }

// Choose implements Chooser.
func (c *SizeTiered) Choose() ([]*Node, error) {
	if b := c.bucket(c.nodes); b != nil {
		return c.capped(b[:min(len(b), maxBucket)]), nil
	}
	return c.smallest(), nil
}

// bucket returns the fullest bucket of nodes that reaches minBucket, or
// nil.
func (c *SizeTiered) bucket(nodes []*Node) []*Node {
	var best, bucket []*Node
	var avg float64
	flush := func() {
		if len(bucket) >= minBucket && len(bucket) > len(best) {
			best = bucket
		}
	}
	for _, nd := range bySize(nodes) {
		size := float64(nd.Live.SizeBytes)
		if len(bucket) == 0 || (size >= bucketLow*avg && size <= bucketHigh*avg) {
			bucket = append(bucket, nd)
			// A running average keeps the bucket's center tracking its
			// members.
			avg += (size - avg) / float64(len(bucket))
			continue
		}
		flush()
		bucket, avg = []*Node{nd}, size
	}
	flush()
	return best
}

// Leveled arranges tables into levels, the LevelDB-style alternative to the
// flat size-tiered layout. Level 0 holds fresh flushes and may overlap
// arbitrarily; every level >= 1 keeps its tables disjoint by key range. Once
// level 0 holds L0Trigger tables they merge, with every level-1 table they
// overlap, down to level 1; once a level's total size exceeds its target —
// BaseTargetBytes at level 1, ten times larger per level below — its
// largest table merges with the tables it overlaps one level down. Merging
// into the overlap keeps each level disjoint, so a point read probes at most
// one table per level >= 1; the price is rewriting overlapping runs. A merge
// spanning two levels lands at the deeper one, a merge within one level one
// level down: Observe labels the output so.
type Leveled struct {
	// L0Trigger is the level-0 table count that triggers an L0→L1 merge.
	// Zero selects 4.
	L0Trigger int
	// BaseTargetBytes is level 1's size target. Zero selects 8 MiB.
	BaseTargetBytes uint64
	liveSet
}

// levelGrowth grows a leveled layout's size target per level, as
// LevelDB's does.
const levelGrowth = 10

// Name implements Chooser.
func (c *Leveled) Name() string { return "leveled" }

// Due reports whether tables warrant a merge.
func (c *Leveled) Due(tables []LiveTable) bool { return c.group(liveLeaves(tables)) != nil }

// Choose implements Chooser.
func (c *Leveled) Choose() ([]*Node, error) {
	if g := c.group(c.nodes); g != nil {
		return c.capped(g), nil
	}
	return c.smallest(), nil
}

// Observe implements Chooser.
func (c *Leveled) Observe(merged *Node) {
	c.liveSet.Observe(merged)
	shallowest, deepest := merged.Children[0].Live.Level, 0
	for _, in := range merged.Children {
		shallowest, deepest = min(shallowest, in.Live.Level), max(deepest, in.Live.Level)
	}
	merged.Live.Level = max(deepest, shallowest+1)
}

// group returns either an L0→L1 merge (every level-0 table plus the level-1
// tables their span covers) or an overflow merge (the largest table of the
// shallowest level over its target plus the tables it covers one level
// down), or nil when neither is due.
func (c *Leveled) group(nodes []*Node) []*Node {
	l0Trigger, target := c.L0Trigger, c.BaseTargetBytes
	if l0Trigger <= 1 {
		l0Trigger = 4
	}
	if target == 0 {
		target = 8 << 20
	}
	byLevel := make(map[int][]*Node)
	deepest := 0
	for _, nd := range nodes {
		byLevel[nd.Live.Level] = append(byLevel[nd.Live.Level], nd)
		deepest = max(deepest, nd.Live.Level)
	}
	if len(byLevel[0]) >= l0Trigger {
		if g := closeOverlap(byLevel[0], byLevel[1]); len(g) >= 2 {
			return g
		}
	}
	for level := 1; level <= deepest; level, target = level+1, target*levelGrowth {
		var total uint64
		for _, nd := range byLevel[level] {
			total += nd.Live.SizeBytes
		}
		if total <= target {
			continue
		}
		// Push the level's largest table down, pulling in everything it
		// covers at level+1.
		seed := byLevel[level][0]
		for _, nd := range byLevel[level] {
			if nd.Live.SizeBytes > seed.Live.SizeBytes {
				seed = nd
			}
		}
		g := closeOverlap([]*Node{seed}, byLevel[level+1])
		if len(g) < 2 {
			// Nothing overlaps below: merge with the smallest same-level
			// sibling so the pick stays a real merge. The pair's combined
			// span may cover further level+1 tables, so close over them too.
			var sibling *Node
			for _, nd := range byLevel[level] {
				if nd != seed && (sibling == nil || nd.Live.SizeBytes < sibling.Live.SizeBytes) {
					sibling = nd
				}
			}
			if sibling == nil {
				continue // a single oversized table alone at its level
			}
			g = closeOverlap([]*Node{seed, sibling}, byLevel[level+1])
		}
		return g
	}
	return nil
}

// closeOverlap grows group with every candidate whose key range overlaps the
// group's combined span, to a fixpoint: adding a table extends the span,
// which can pull in more. This is what keeps a merge's output disjoint from
// the tables left behind at its level.
func closeOverlap(group, candidates []*Node) []*Node {
	var span LiveTable
	for _, nd := range group {
		span.extend(nd.Live)
	}
	for grew := true; grew; {
		grew = false
		for _, c := range candidates {
			if !slices.Contains(group, c) && span.overlaps(c.Live) {
				group = append(group, c)
				span.extend(c.Live)
				grew = true
			}
		}
	}
	return group
}
