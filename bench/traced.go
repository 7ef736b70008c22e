package main

import (
	"context"
	"fmt"
	"path/filepath"
)

// runTraced makes the per-layer run of w: one client, a fifth of the timed
// run's ops, twice from identical set-ups — first with span recording off,
// as the reference the tracing overhead is measured against and the source
// of the client-observed timings, then with a span recorded at every
// boundary. Probes run last, against the directory the traced phase left
// behind.
func runTraced(ctx context.Context, cfg runConfig, w workload) (*result, error) {
	one := w
	one.clients = 1
	traceOps := max(int(float64(cfg.runOps(w))*traceFrac), 200)
	in, err := generate(one, cfg.seed, traceOps)
	if err != nil {
		return nil, err
	}

	// An embedded op records about three spans (op, client call, one file
	// call), a cluster op up to nine; maintenance adds a few per flush. The
	// buffer is allocated before the reference phase so both phases run
	// with the same live heap, and so the same garbage-collection pacing.
	perOp := 4
	if w.backend != embedded {
		perOp = 12
	}
	tr := newTracer(traceOps*perOp + 1<<18)

	ref, err := cfg.prepare(ctx, one, in, tr, 1)
	if err != nil {
		return nil, err
	}
	refPhase := ref.sys.runPhase(ctx, ref.eng, in.keys, in.run, tr, cfg.phaseLimit())
	if err := ref.sys.teardown(); err != nil {
		return nil, err
	}

	p, err := cfg.prepare(ctx, one, in, tr, 1)
	if err != nil {
		return nil, err
	}
	tr.on.Store(true)
	ph := p.sys.runPhase(ctx, p.eng, in.keys, in.run, tr, cfg.phaseLimit())
	tr.on.Store(false)
	end, err := p.finish(ctx)
	probeDir := p.sys.probeDir()
	if cerr := p.sys.close(); err == nil {
		err = cerr
	}
	var probes map[string]float64
	if err == nil {
		probes, err = runProbes(one, cfg.seed, probeDir)
	}
	if rerr := removeAll(p.sys.dir); err == nil {
		err = rerr
	}
	if err != nil {
		return nil, err
	}
	spans, dropped := tr.recorded()
	if dropped > 0 {
		return nil, fmt.Errorf("%s: trace buffer too small, %d spans dropped", w.name, dropped)
	}

	puts := float64(ph.hists[opPut].n)
	userBytes := puts * (keyLen + valueLen)
	a := analyze(spans, w.backend != embedded)
	m := a.metrics(one, ph.wall.Nanoseconds(), ph.scanned, userBytes)
	for name, v := range probes {
		m[name] = v
	}
	addTimings(m, "kv.", refPhase)
	addTails(m, refPhase)
	m["kv.trace_overhead_frac"] = 1 - ratio(ph.opsPerSec(), refPhase.opsPerSec())
	addCounterMetrics(m, one, p, end, float64(ph.hists[opGet].n), userBytes)

	if err := writeTrace(filepath.Join(cfg.dir, "trace-"+w.name+".json"), newEnvStamp(cfg), w, spans, a); err != nil {
		return nil, err
	}
	res := &result{
		Workload:  w.name,
		Traced:    true,
		Attempted: ref.warm.attempted + refPhase.attempted + p.warm.attempted + ph.attempted,
		Failed:    ref.warm.failed + refPhase.failed + p.warm.failed + ph.failed,
		Truncated: refPhase.truncated || ph.truncated,
		Metrics:   m,
	}
	res.Correct = res.Failed == 0 && !res.Truncated
	fmt.Fprintf(cfg.log, "%s traced: %d ops, one client, %d spans (%d background); untraced %.0f op/s, traced %.0f op/s\n",
		w.name, ph.attempted, len(spans), a.background, refPhase.opsPerSec(), ph.opsPerSec())
	return res, nil
}

// addTails reports the client-observed percentiles of the reference phase.
// A percentile with fewer than ten samples beyond it is left out.
func addTails(m map[string]float64, ph *phase) {
	get, put, scan := &ph.hists[opGet], &ph.hists[opPut], &ph.hists[opScan]
	for _, t := range []struct {
		name string
		h    *hist
		q    float64
	}{
		{"kv.get_p99_us", get, 0.99}, {"kv.get_p999_us", get, 0.999},
		{"kv.put_p99_us", put, 0.99}, {"kv.put_p999_us", put, 0.999},
		{"kv.scan_p50_us", scan, 0.5}, {"kv.scan_p99_us", scan, 0.99},
	} {
		if t.h.supports(t.q) {
			m[t.name] = t.h.quantileUs(t.q)
		}
	}
	m["kv.put_max_ms"] = float64(put.max) / 1e6
	m["kv.get_samples"] = float64(get.n)
	m["kv.put_samples"] = float64(put.n)
	if scan.n > 0 {
		m["kv.scan_samples"] = float64(scan.n)
	}
}

// imbalance is max/mean of the per-unit deltas.
func imbalance(before, after []uint64) float64 {
	var max, sum float64
	for i := range after {
		d := float64(after[i])
		if i < len(before) {
			d -= float64(before[i])
		}
		if d > max {
			max = d
		}
		sum += d
	}
	return ratio(max*float64(len(after)), sum)
}

// addCounterMetrics reports the engine's own counters as deltas over the
// traced phase (p.before was read after the warm-up, end after the final
// flush).
func addCounterMetrics(m map[string]float64, w workload, p *prepared, end counters, gets, userBytes float64) {
	b := p.before
	d := func(after, before uint64) float64 { return float64(after - before) }
	m["lsm.flushes"] = float64(end.flushes - b.flushes)
	m["lsm.minor_compactions"] = float64(end.minorCompactions - b.minorCompactions)
	m["lsm.tables_end"] = float64(end.tables)
	m["lsm.write_stall_ms"] = float64(end.stallNanos-b.stallNanos) / 1e6
	m["lsm.group_size"] = ratio(d(end.groupedWrites, b.groupedWrites), d(end.groupCommits, b.groupCommits))
	m["lsm.wal_syncs_per_write"] = ratio(d(end.walSyncs, b.walSyncs), d(end.groupedWrites, b.groupedWrites))
	neg, fp := d(end.filterNegatives, b.filterNegatives), d(end.filterFalsePositives, b.filterFalsePositives)
	m["sstable.filter_negatives_per_get"] = ratio(neg, gets)
	m["sstable.filter_fp_rate"] = ratio(fp, fp+neg)
	hits, misses := d(end.cacheHits, b.cacheHits), d(end.cacheMisses, b.cacheMisses)
	m["cache.hit_rate"] = ratio(hits, hits+misses)
	m["cache.shard_balance"] = end.cacheBalance
	m["compaction.picks"] = d(end.picks, b.picks)
	m["compaction.bytes_rewritten_per_user_byte"] = ratio(d(end.bytesCompacted, b.bytesCompacted), userBytes)
	if mj := p.sys.major; mj != nil {
		m["compaction.major_s"] = mj.Duration.Seconds()
		m["compaction.major_merges"] = float64(mj.Merges)
		m["compaction.major_cost_actual"] = float64(mj.CostActual)
		m["compaction.major_mb_per_s"] = ratio(float64(mj.BytesWritten)/1e6, mj.Duration.Seconds())
	}
	switch w.backend {
	case remote:
		m["store.shard_imbalance"] = imbalance(b.unitWrites, end.unitWrites)
	case clustered:
		m["cluster.node_imbalance"] = imbalance(b.unitWrites, end.unitWrites)
		m["cluster.read_repairs"] = d(end.readRepairs, b.readRepairs)
		m["cluster.hints_parked"] = d(end.hintsParked, b.hintsParked)
	}
}
