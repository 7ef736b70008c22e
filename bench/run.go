package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"repro/kv"
)

// runConfig is everything one run depends on besides the workload.
type runConfig struct {
	seed    int64
	seconds float64
	scale   float64
	dir     string // scratch databases and output files live here
	auto    string // live picker; livePolicy unless -auto overrides it
	trace   bool
	// wrapClient, when set, wraps the engine the clients drive. The smoke
	// test uses it to corrupt values and see them counted as failed ops.
	wrapClient func(kv.Engine) kv.Engine
	log        io.Writer
}

// runOps is the workload's frozen op count for this run length, split
// evenly over its clients; -scale never shrinks it below 200 per client.
func (c runConfig) runOps(w workload) int {
	n := int(float64(w.opsPerSec)*c.seconds*c.scale) / w.clients
	return max(n, 200) * w.clients
}

// phase is what one pass of the clients over their ops measured.
type phase struct {
	wall       time.Duration
	hists      [numOpKinds]hist
	attempted  int64
	failed     int64
	scanned    int64 // entries the scans consumed
	cpu        time.Duration
	allocs     uint64 // heap objects allocated, whole process
	allocBytes uint64
	readBytes  int64 // file bytes read and written by the engines
	writeBytes int64
	heapPeak   uint64
	truncated  bool // a client hit the safety cap before finishing its ops
}

func (p *phase) ops() float64 { return float64(p.attempted) }

func (p *phase) opsPerSec() float64 { return p.ops() / p.wall.Seconds() }

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// heapSampleEvery is short enough to see nearly every collection's live
// heap, so the peak is the maximum over all of them rather than over a
// sample of them.
const heapSampleEvery = 10 * time.Millisecond

const (
	heapLiveMetric   = "/gc/heap/live:bytes" // marked by the last collection: no garbage, so it repeats
	allocsMetric     = "/gc/heap/allocs:objects"
	allocBytesMetric = "/gc/heap/allocs:bytes"
)

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

var errBadScan = errors.New("scan returned a wrong entry")

// scan reads up to limit entries from start and checks each: keys ascend
// from start, and every value is one the harness wrote for its key.
func scan(ctx context.Context, eng kv.Engine, start []byte, limit int) (n int64, err error) {
	it, err := eng.NewIterator(ctx, start, nil)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := it.Close(); err == nil {
			err = cerr
		}
	}()
	var prev [keyLen]byte
	copy(prev[:], start)
	for ; n < int64(limit) && it.Valid(); it.Next() {
		k := it.Key()
		id, ok := keyID(k)
		if !ok || (n == 0 && !bytes.Equal(k, start)) || (n > 0 && bytes.Compare(k, prev[:]) <= 0) {
			return n, errBadScan
		}
		if _, ok := checkValue(it.Value(), id); !ok {
			return n, errBadScan
		}
		copy(prev[:], k)
		n++
	}
	if n == 0 {
		return 0, errBadScan // the start key is always a loaded record
	}
	return n, it.Err()
}

// client runs one client's ops in a closed loop: the next op is issued
// when the previous one returns. A Get passes if it returns the key's
// value at a version no older than the last one acknowledged before the
// Get was issued.
func (s *system) client(ctx context.Context, eng kv.Engine, keys []uint64, ops []op, tr *tracer, deadline time.Time, out *phase) {
	var val [valueLen]byte
	key := new([keyLen]byte)
	for _, o := range ops {
		opStart := tr.start()
		if s.w.backend == clustered {
			// The quorum router returns once W replicas have answered while
			// the call to the last one, and any read repair, still hold the
			// caller's key slice; reusing the buffer would rewrite it under
			// them. A fresh key per op keeps every operation valid.
			key = new([keyLen]byte)
		}
		id := keys[o.slot]
		putKey(key, id)
		acked := s.acked[o.slot].Load()
		if o.kind == opPut {
			putValue(&val, id, acked+1)
		}
		ok := false
		t0 := time.Now()
		if t0.After(deadline) {
			out.truncated = true
			return
		}
		switch o.kind {
		case opGet:
			v, err := eng.Get(ctx, key[:])
			out.hists[opGet].record(time.Since(t0))
			if err == nil {
				version, good := checkValue(v, id)
				ok = good && version >= acked
			}
		case opPut:
			err := eng.Put(ctx, key[:], val[:])
			out.hists[opPut].record(time.Since(t0))
			if err == nil {
				s.acked[o.slot].Store(acked + 1)
				ok = true
			}
		case opScan:
			n, err := scan(ctx, eng, key[:], int(o.scanLen))
			out.hists[opScan].record(time.Since(t0))
			out.scanned += n
			ok = err == nil
		}
		tr.end(spOpGet+spanName(o.kind), fcNone, opStart, 0)
		out.attempted++
		if !ok {
			out.failed++
		}
	}
}

// runPhase drives one client per op stream against eng and measures the
// pass: wall time, process CPU time, allocations, file bytes, and the peak
// live heap, sampled without stopping the world.
func (s *system) runPhase(ctx context.Context, eng kv.Engine, keys []uint64, ops [][]op, tr *tracer, limit time.Duration) *phase {
	stop, sampled := make(chan struct{}), make(chan uint64)
	go func() {
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		peak := readMetric(heapLiveMetric)
		for {
			select {
			case <-tick.C:
				if v := readMetric(heapLiveMetric); v > peak {
					peak = v
				}
			case <-stop:
				sampled <- peak
				return
			}
		}
	}()
	per := make([]phase, len(ops))
	allocs0, bytes0, read0, written0 := readMetric(allocsMetric), readMetric(allocBytesMetric), tr.readBytes.Load(), tr.writtenBytes.Load()
	cpu0, t0 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for c := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.client(ctx, eng, keys, ops[c], tr, t0.Add(limit), &per[c])
		}()
	}
	wg.Wait()
	total := &phase{
		wall: time.Since(t0), cpu: cpuTime() - cpu0,
		allocs: readMetric(allocsMetric) - allocs0, allocBytes: readMetric(allocBytesMetric) - bytes0,
		readBytes: tr.readBytes.Load() - read0, writeBytes: tr.writtenBytes.Load() - written0,
	}
	close(stop)
	total.heapPeak = <-sampled
	for c := range per {
		p := &per[c]
		for k := range p.hists {
			total.hists[k].merge(&p.hists[k])
		}
		total.attempted += p.attempted
		total.failed += p.failed
		total.scanned += p.scanned
		total.truncated = total.truncated || p.truncated
	}
	return total
}

// result is one run of one workload.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	Truncated bool               `json:"truncated,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// prepared is a set-up system after its untimed warm-up, ready to measure.
type prepared struct {
	sys     *system
	eng     kv.Engine
	setupS  float64 // median over the set-ups made
	warm    *phase
	before  counters
	heapRef uint64 // heap in use by the harness's own inputs, before any set-up
}

func (c runConfig) scratch(w workload) string {
	return filepath.Join(c.dir, fmt.Sprintf("%s-%d", w.name, os.Getpid()))
}

// phaseLimit is the safety cap on a phase: a commit several times slower
// than the one the op counts were frozen at still ends inside the driver's
// time limit, and the run is marked truncated.
func (c runConfig) phaseLimit() time.Duration {
	return time.Duration((3*c.seconds + 5) * float64(time.Second))
}

// prepare sets the backend up reps times (keeping the last) behind tr's
// wrappers, then runs the warm-up so lazy index chunks, the block cache and
// the Go heap are in steady state when measurement starts.
func (c runConfig) prepare(ctx context.Context, w workload, in *inputs, tr *tracer, reps int) (*prepared, error) {
	runtime.GC()
	p := &prepared{heapRef: readMetric(heapLiveMetric)}
	dir := c.scratch(w)
	var setups []float64
	for i := 0; i < reps; i++ {
		if p.sys != nil {
			if err := p.sys.teardown(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		sys, err := setUp(ctx, w, in, dir, c.auto, tr)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		p.sys = sys
	}
	p.setupS = median(setups)
	p.eng = tr.client(p.sys.eng)
	if c.wrapClient != nil {
		p.eng = c.wrapClient(p.eng)
	}
	p.warm = p.sys.runPhase(ctx, p.eng, in.keys, in.warmup, tr, c.phaseLimit())
	var err error
	if p.before, err = p.sys.counters(ctx); err != nil {
		p.sys.teardown()
		return nil, err
	}
	runtime.GC()
	return p, nil
}

// finish flushes what the run left in the memtables (untimed), so the end
// counters cover every live record, and reads them.
func (p *prepared) finish(ctx context.Context) (counters, error) {
	if err := p.sys.eng.Flush(ctx); err != nil {
		return counters{}, err
	}
	return p.sys.counters(ctx)
}

// teardown closes the system and deletes its directory.
func (s *system) teardown() error {
	err := s.close()
	if rerr := removeAll(s.dir); err == nil {
		err = rerr
	}
	return err
}

// runWorkload makes one timed or traced run of w.
func runWorkload(ctx context.Context, cfg runConfig, w workload) (*result, error) {
	w = w.scaled(cfg.scale)
	if cfg.trace {
		return runTraced(ctx, cfg, w)
	}
	in, err := generate(w, cfg.seed, cfg.runOps(w))
	if err != nil {
		return nil, err
	}
	tr := newTracer(0) // never switched on: a timed run records no spans
	p, err := cfg.prepare(ctx, w, in, tr, setupReps)
	if err != nil {
		return nil, err
	}
	ph := p.sys.runPhase(ctx, p.eng, in.keys, in.run, tr, cfg.phaseLimit())
	end, err := p.finish(ctx)
	if terr := p.sys.teardown(); err == nil {
		err = terr
	}
	if err != nil {
		return nil, err
	}
	res := &result{
		Workload:  w.name,
		Attempted: p.warm.attempted + ph.attempted,
		Failed:    p.warm.failed + ph.failed,
		Truncated: ph.truncated,
		Metrics: map[string]float64{
			"setup_s":            p.setupS,
			"write_amp":          ratio(float64(end.bytesFlushed+end.bytesCompacted), float64(end.bytesFlushed)),
			"space_amp":          float64(end.tableBytes) / w.logicalBytes(),
			"read_bytes_per_op":  float64(ph.readBytes) / ph.ops(),
			"write_bytes_per_op": float64(ph.writeBytes) / ph.ops(),
			"allocs_per_op":      float64(ph.allocs) / ph.ops(),
			"alloc_bytes_per_op": float64(ph.allocBytes) / ph.ops(),
			"heap_peak_mb":       (float64(ph.heapPeak) - float64(p.heapRef)) / (1 << 20),
			"ok_ops_frac":        1 - float64(ph.failed)/ph.ops(),
		},
	}
	addTimings(res.Metrics, "", ph)
	res.Correct = res.Failed == 0 && !res.Truncated
	fmt.Fprintf(cfg.log, "%s: %d ops in %.2fs, warm-up %d ops, set-up %.3fs (median of %d)\n",
		w.name, ph.attempted, ph.wall.Seconds(), p.warm.attempted, p.setupS, setupReps)
	printTails(cfg.log, ph)
	return res, nil
}

// addTimings reports a phase's wall-clock and CPU-time metrics. On a shared
// host they drift by a fifth between runs of the same binary, so they are
// reported and compared (-compare) but not gated: a timed run lists them
// after the end-to-end metrics, a traced run as kv.* per-layer metrics.
func addTimings(m map[string]float64, prefix string, ph *phase) {
	m[prefix+"ops_per_s"] = ph.opsPerSec()
	m[prefix+"cpu_us_per_op"] = float64(ph.cpu.Microseconds()) / ph.ops()
	m[prefix+"read_p50_us"] = ph.hists[opGet].quantileUs(0.5)
	m[prefix+"write_p50_us"] = ph.hists[opPut].quantileUs(0.5)
}

// printTails reports the percentiles the sample size supports; they are
// not gated (they do not repeat within a tenth on a shared host).
func printTails(w io.Writer, ph *phase) {
	for k := range ph.hists {
		h := &ph.hists[k]
		if h.n == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-4s n=%-9d p50=%.2fus", opKindNames[k], h.n, h.quantileUs(0.5))
		for _, q := range []float64{0.99, 0.999, 0.9999} {
			if h.supports(q) {
				fmt.Fprintf(w, " p%g=%.2fus", q*100, h.quantileUs(q))
			}
		}
		fmt.Fprintf(w, " max=%.3fms\n", float64(h.max)/1e6)
	}
}
