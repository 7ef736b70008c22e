package cluster

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/kverr"
	"repro/internal/kvnet"
)

// Merged quorum scans. A range scan must see every key the cluster has
// acknowledged, so it queries all live nodes, merges the pages by key
// keeping the newest version of each, filters tombstones and the
// reserved hint namespace, and — the subtle part — only emits keys up to
// the *horizon*: the smallest last-key among nodes whose page came back
// full. Beyond the horizon some node may hold entries its next page
// would reveal, so emitting past it could miss keys or resurrect stale
// versions. The scan tolerates as many unresponsive nodes as quorum
// arithmetic allows (N−R): past that, some key could have all its
// newest-version holders unreachable, and the scan fails rather than
// silently serving stale data.

// keySuccessor returns the smallest key strictly greater than k.
func keySuccessor(k []byte) []byte {
	out := make([]byte, len(k)+1)
	copy(out, k)
	return out
}

// RangePage returns one page of the merged, version-resolved view of
// [start, end): up to limit live entries in key order, plus the start
// key for the next page (nil when the range is exhausted). A page can be
// shorter than limit — or even empty — while next is non-nil: tombstones
// and bookkeeping keys consume page budget without producing entries, so
// callers must loop on next, not on page size.
func (rt *Router) RangePage(ctx context.Context, start, end []byte, limit int) ([]kvnet.ScanEntry, []byte, error) {
	if limit <= 0 || limit > 10000 {
		limit = 10000
	}
	nEff := min(rt.opts.ReplicationFactor, len(rt.conns))
	rEff := rt.opts.ReadQuorum
	if rEff > nEff {
		rEff = nEff
	}
	allowedDown := nEff - rEff

	type nodePage struct {
		entries []kvnet.ScanEntry
		full    bool
		err     error
	}
	var (
		mu     sync.Mutex
		pages  []nodePage
		failed int
		first  error
		wg     sync.WaitGroup
	)
	for node := range rt.conns {
		if rt.health.isDown(node) {
			failed++
			continue
		}
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			var entries []kvnet.ScanEntry
			err := rt.do(ctx, node, func(actx context.Context, c *kvnet.Client) error {
				var err error
				entries, err = c.Range(actx, start, end, limit)
				return err
			})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				failed++
				if first == nil {
					first = err
				}
				return
			}
			pages = append(pages, nodePage{entries: entries, full: len(entries) >= limit})
		}(node)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, nil, fmt.Errorf("cluster: scan abandoned: %w", err)
	}
	if failed > allowedDown {
		if first == nil {
			first = fmt.Errorf("cluster: nodes marked down: %w", kverr.ErrUnavailable)
		}
		return nil, nil, fmt.Errorf("cluster: scan needs all but %d nodes, %d unreachable: %w (first error: %w)", allowedDown, failed, kverr.ErrUnavailable, first)
	}

	// The horizon bounds what this page may emit: the smallest last-key
	// among full pages. Nodes with short pages are exhausted for the
	// whole range, so they never constrain it.
	var horizon []byte
	haveHorizon := false
	for _, p := range pages {
		if !p.full || len(p.entries) == 0 {
			continue
		}
		last := p.entries[len(p.entries)-1].Key
		if !haveHorizon || bytes.Compare(last, horizon) < 0 {
			horizon, haveHorizon = last, true
		}
	}

	best := make(map[string]Record)
	for _, p := range pages {
		for _, e := range p.entries {
			if haveHorizon && bytes.Compare(e.Key, horizon) > 0 {
				continue
			}
			if bytes.HasPrefix(e.Key, []byte(hintPrefix)) {
				continue
			}
			rec, err := decodeRecord(e.Value)
			if err != nil {
				return nil, nil, err
			}
			k := string(e.Key)
			if cur, ok := best[k]; !ok || rec.Version > cur.Version {
				best[k] = rec
			}
		}
	}
	keys := make([]string, 0, len(best))
	for k, rec := range best {
		if !rec.Tombstone {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)

	var next []byte
	if haveHorizon {
		next = keySuccessor(horizon)
	}
	if len(keys) > limit {
		keys = keys[:limit]
		next = keySuccessor([]byte(keys[limit-1]))
	}
	out := make([]kvnet.ScanEntry, len(keys))
	for i, k := range keys {
		out[i] = kvnet.ScanEntry{Key: []byte(k), Value: best[k].Value}
	}
	return out, next, nil
}
