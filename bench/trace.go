package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/kvnet"
	"repro/internal/lsm"
	"repro/internal/vfs"
	"repro/kv"
)

// The traced run records a span at each of the three boundaries the code
// already exposes as interfaces — the client kv.Engine, the kvnet.Engine a
// server is built on, and vfs.FS/vfs.File — plus one span per operation
// from the client loop itself. All spans come from this package: nothing
// inside the engine is instrumented.

type spanName uint8

const (
	spOpGet spanName = iota // whole operation in the client loop: key, engine call, value check
	spOpPut
	spOpScan
	spKVGet // client-side kv.Engine call
	spKVPut
	spKVScan // NewIterator until the iterator's Close
	spSrvGet // server-side kvnet.Engine call
	spSrvPut
	spSrvRange
	spSrvOther
	spVFSWrite
	spVFSReadAt
	spVFSSync
	spVFSCreate
	spVFSOpen
	spVFSRemove
	spVFSRename
	spVFSOther
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op.get", "op.put", "op.scan", "kv.get", "kv.put", "kv.scan",
	"srv.get", "srv.put", "srv.range", "srv.other",
	"vfs.write", "vfs.readat", "vfs.sync", "vfs.create", "vfs.open", "vfs.remove", "vfs.rename", "vfs.other",
}

// level orders the boundaries outside-in: 0 op, 1 client engine, 2 server
// engine, 3 filesystem.
func (n spanName) level() int {
	switch {
	case n <= spOpScan:
		return 0
	case n <= spKVScan:
		return 1
	case n <= spSrvOther:
		return 2
	}
	return 3
}

type fileClass uint8

const (
	fcNone fileClass = iota
	fcWAL
	fcSST
	fcManifest
	fcOther
)

var fileClassNames = []string{"", "wal", "sst", "manifest", "other"}

func classify(path string) fileClass {
	base := filepath.Base(path)
	switch {
	case strings.HasPrefix(base, "wal.log"): // Open writes wal.log.new and renames it
		return fcWAL
	case strings.HasSuffix(base, ".sst"):
		return fcSST
	case strings.HasPrefix(base, "MANIFEST"):
		return fcManifest
	}
	return fcOther
}

// span is one recorded interval, in nanoseconds since the tracer's epoch.
// n is the byte count of a vfs read or write, or the entries a server-side
// range call iterated.
type span struct {
	start, end int64
	n          uint32
	name       spanName
	class      fileClass
}

// tracer records spans into a preallocated slice; an atomic cursor makes
// recording safe from the server goroutines without a lock. While off (every
// timed run, and the set-up and warm-up of a traced one) the wrappers pass
// straight through, except that file reads and writes are always counted:
// the timed run's I/O-cost metrics are those two byte counts.
type tracer struct {
	on    atomic.Bool
	next  atomic.Int64
	spans []span
	epoch time.Time

	readBytes, writtenBytes atomic.Int64
}

func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, capacity), epoch: time.Now()}
}

// start opens a span: it reads the clock only while recording is on, and
// returns -1 otherwise, which makes the matching end a no-op.
func (t *tracer) start() int64 {
	if !t.on.Load() {
		return -1
	}
	return int64(time.Since(t.epoch))
}

// end closes the span opened at start and records it.
func (t *tracer) end(name spanName, class fileClass, start int64, n int) {
	if start < 0 {
		return
	}
	end := int64(time.Since(t.epoch))
	if i := t.next.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = span{start: start, end: end, n: uint32(n), name: name, class: class}
	}
}

// recorded returns the spans kept and how many did not fit.
func (t *tracer) recorded() (spans []span, dropped int64) {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		return t.spans, n - int64(len(t.spans))
	}
	return t.spans[:n], 0
}

// ---- client boundary: kv.Engine ----

type tracedEngine struct {
	kv.Engine
	t *tracer
}

func (t *tracer) client(e kv.Engine) kv.Engine { return tracedEngine{Engine: e, t: t} }

func (e tracedEngine) Get(ctx context.Context, key []byte) ([]byte, error) {
	s := e.t.start()
	v, err := e.Engine.Get(ctx, key)
	e.t.end(spKVGet, fcNone, s, len(v))
	return v, err
}

func (e tracedEngine) Put(ctx context.Context, key, value []byte) error {
	s := e.t.start()
	err := e.Engine.Put(ctx, key, value)
	e.t.end(spKVPut, fcNone, s, len(value))
	return err
}

func (e tracedEngine) NewIterator(ctx context.Context, start, end []byte) (kv.Iterator, error) {
	s := e.t.start()
	it, err := e.Engine.NewIterator(ctx, start, end)
	if err != nil {
		e.t.end(spKVScan, fcNone, s, 0)
		return nil, err
	}
	return &tracedIterator{Iterator: it, t: e.t, start: s}, nil
}

// tracedIterator closes the kv.scan span when the scan's iterator closes.
type tracedIterator struct {
	kv.Iterator
	t     *tracer
	start int64
}

func (it *tracedIterator) Close() error {
	err := it.Iterator.Close()
	it.t.end(spKVScan, fcNone, it.start, 0)
	return err
}

// ---- server boundary: kvnet.Engine ----

type tracedServer struct {
	kvnet.Engine
	t *tracer
}

func (t *tracer) server(e kvnet.Engine) kvnet.Engine { return tracedServer{Engine: e, t: t} }

func (e tracedServer) GetContext(ctx context.Context, key []byte) ([]byte, error) {
	s := e.t.start()
	v, err := e.Engine.GetContext(ctx, key)
	e.t.end(spSrvGet, fcNone, s, len(v))
	return v, err
}

func (e tracedServer) PutContext(ctx context.Context, key, value []byte) error {
	s := e.t.start()
	err := e.Engine.PutContext(ctx, key, value)
	e.t.end(spSrvPut, fcNone, s, len(value))
	return err
}

func (e tracedServer) DeleteContext(ctx context.Context, key []byte) error {
	s := e.t.start()
	err := e.Engine.DeleteContext(ctx, key)
	e.t.end(spSrvOther, fcNone, s, 0)
	return err
}

// WriteContext carries the cluster router's replica writes (and batches).
func (e tracedServer) WriteContext(ctx context.Context, b *lsm.WriteBatch) error {
	s := e.t.start()
	err := e.Engine.WriteContext(ctx, b)
	e.t.end(spSrvPut, fcNone, s, b.SizeBytes())
	return err
}

func (e tracedServer) RangeContext(ctx context.Context, start, end []byte, fn func(key, value []byte) error) error {
	s := e.t.start()
	if s < 0 {
		return e.Engine.RangeContext(ctx, start, end, fn)
	}
	entries := 0
	err := e.Engine.RangeContext(ctx, start, end, func(k, v []byte) error {
		entries++
		return fn(k, v)
	})
	e.t.end(spSrvRange, fcNone, s, entries)
	return err
}

// ---- filesystem boundary: vfs.FS and vfs.File ----

type tracedFS struct {
	vfs.FS
	t *tracer
}

func (t *tracer) fs(inner vfs.FS) vfs.FS { return tracedFS{FS: inner, t: t} }

// wrap is applied whether or not recording is on: files opened during
// set-up (the WAL, table readers) are still in use in the traced phase.
func (f tracedFS) wrap(file vfs.File, err error, path string) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, t: f.t, class: classify(path)}, nil
}

func (f tracedFS) Create(path string) (vfs.File, error) {
	s := f.t.start()
	file, err := f.FS.Create(path)
	f.t.end(spVFSCreate, classify(path), s, 0)
	return f.wrap(file, err, path)
}

func (f tracedFS) Open(path string) (vfs.File, error) {
	s := f.t.start()
	file, err := f.FS.Open(path)
	f.t.end(spVFSOpen, classify(path), s, 0)
	return f.wrap(file, err, path)
}

func (f tracedFS) Remove(path string) error {
	s := f.t.start()
	err := f.FS.Remove(path)
	f.t.end(spVFSRemove, classify(path), s, 0)
	return err
}

func (f tracedFS) Rename(oldpath, newpath string) error {
	s := f.t.start()
	err := f.FS.Rename(oldpath, newpath)
	f.t.end(spVFSRename, classify(newpath), s, 0)
	return err
}

func (f tracedFS) ReadFile(path string) ([]byte, error) {
	s := f.t.start()
	data, err := f.FS.ReadFile(path)
	f.t.readBytes.Add(int64(len(data)))
	f.t.end(spVFSOther, classify(path), s, len(data))
	return data, err
}

func (f tracedFS) SyncDir(path string) error {
	s := f.t.start()
	err := f.FS.SyncDir(path)
	f.t.end(spVFSSync, fcOther, s, 0)
	return err
}

type tracedFile struct {
	vfs.File
	t     *tracer
	class fileClass
}

func (f *tracedFile) Write(p []byte) (int, error) {
	s := f.t.start()
	n, err := f.File.Write(p)
	f.t.writtenBytes.Add(int64(n))
	f.t.end(spVFSWrite, f.class, s, n)
	return n, err
}

func (f *tracedFile) ReadAt(p []byte, off int64) (int, error) {
	s := f.t.start()
	n, err := f.File.ReadAt(p, off)
	f.t.readBytes.Add(int64(n))
	f.t.end(spVFSReadAt, f.class, s, n)
	return n, err
}

func (f *tracedFile) Sync() error {
	s := f.t.start()
	err := f.File.Sync()
	f.t.end(spVFSSync, f.class, s, 0)
	return err
}

func (f *tracedFile) Close() error {
	s := f.t.start()
	err := f.File.Close()
	f.t.end(spVFSOther, f.class, s, 0)
	return err
}

// ---- analysis ----

// kindStats accumulates the traced operations of one kind.
type kindStats struct {
	ops                       int
	opNs, kvNs, srvNs, vfsNs  int64     // op span, client call, union of server spans, union of vfs spans
	wire                      []float64 // per op, ns: client call not covered by any server span
	srvCalls, srvEntries      int64
	walCalls, walBytes, walNs int64
	sstReads, sstReadBytes    int64
	// Ops that created an .sst carried a flush or compaction: their op
	// spans and engine-side time (vfs included) are kept apart from the
	// plain ops' engine self time.
	maintOpNs, maintEngineNs int64
	plainOps, plainSelfNs    int64
}

// spanTotal sums one span name over the whole traced phase, background
// included.
type spanTotal struct{ calls, n, ns int64 }

type analysis struct {
	kinds      [numOpKinds]kindStats
	totals     [numSpanNames]spanTotal
	background int // spans that started outside every op interval
	parent     []int32
	opOf       []int32
	order      []int32 // span indices sorted by start, parents first
}

// opAcc is the operation the sweep is currently inside.
type opAcc struct {
	idx             int32
	kind            opKind
	start, end      int64
	kvIdx           int32
	kvStart, kvEnd  int64
	srvNs, srvUntil int64 // union of the server spans so far, and where it ends
	vfsNs, vfsUntil int64
	srvIdx          []int32
	createdSST      bool
}

// cover adds [start,end) to a running union of intervals that arrive in
// start order, clipped to limit, and returns the newly covered length.
func cover(until *int64, start, end, limit int64) int64 {
	if end > limit {
		end = limit
	}
	if start < *until {
		start = *until
	}
	if end <= start {
		return 0
	}
	*until = end
	return end - start
}

// analyze nests the spans by time containment. With one client the op
// spans are disjoint, so a span belongs to the op whose interval holds its
// start; anything else is background. A level's self time is its span
// minus the union of the next level's spans inside it, so parallel replica
// calls and parallel merge workers are not counted twice.
func analyze(spans []span, networked bool) *analysis {
	a := &analysis{parent: make([]int32, len(spans)), opOf: make([]int32, len(spans)), order: make([]int32, len(spans))}
	for i := range a.order {
		a.order[i] = int32(i)
	}
	sort.Slice(a.order, func(x, y int) bool {
		sx, sy := &spans[a.order[x]], &spans[a.order[y]]
		if sx.start != sy.start {
			return sx.start < sy.start
		}
		return sx.name.level() < sy.name.level()
	})
	var cur *opAcc
	closeOp := func() {
		if cur == nil {
			return
		}
		k := &a.kinds[cur.kind]
		kvNs := cur.kvEnd - cur.kvStart
		engineNs := kvNs // embedded: the client call is the engine call
		if networked {
			engineNs = cur.srvNs
			k.wire = append(k.wire, float64(kvNs-cur.srvNs))
		}
		k.ops++
		k.opNs += cur.end - cur.start
		k.kvNs += kvNs
		k.srvNs += cur.srvNs
		k.vfsNs += cur.vfsNs
		if cur.createdSST {
			k.maintOpNs += cur.end - cur.start
			k.maintEngineNs += engineNs
		} else {
			k.plainOps++
			k.plainSelfNs += engineNs - cur.vfsNs
		}
		cur = nil
	}
	for _, i := range a.order {
		s := &spans[i]
		a.parent[i], a.opOf[i] = -1, -1
		lvl := s.name.level()
		if lvl == 0 {
			closeOp()
			cur = &opAcc{idx: i, kind: opKind(s.name - spOpGet), start: s.start, end: s.end, kvIdx: -1}
			a.opOf[i] = i
			continue
		}
		t := &a.totals[s.name]
		t.calls++
		t.n += int64(s.n)
		t.ns += s.end - s.start
		if cur == nil || s.start >= cur.end {
			a.background++
			continue
		}
		k := &a.kinds[cur.kind]
		switch lvl {
		case 1:
			cur.kvIdx, cur.kvStart, cur.kvEnd = i, s.start, s.end
			cur.srvUntil, cur.vfsUntil = s.start, s.start
			a.parent[i] = cur.idx
		case 2:
			// A replica call still running when its quorum was met can
			// spill into the next op; only calls of the op's own kind nest.
			if cur.kvIdx < 0 || s.name-spSrvGet != spanName(cur.kind) {
				a.background++
				continue
			}
			a.parent[i] = cur.kvIdx
			cur.srvIdx = append(cur.srvIdx, i)
			k.srvCalls++
			if s.name == spSrvRange {
				k.srvEntries += int64(s.n)
			}
			cur.srvNs += cover(&cur.srvUntil, s.start, s.end, cur.kvEnd)
		case 3:
			a.parent[i] = cur.kvIdx
			if networked {
				a.parent[i] = -1
				for j := len(cur.srvIdx) - 1; j >= 0; j-- {
					if p := &spans[cur.srvIdx[j]]; p.start <= s.start && s.start < p.end {
						a.parent[i] = cur.srvIdx[j]
						break
					}
				}
			}
			if a.parent[i] < 0 {
				a.background++
				continue
			}
			cur.vfsNs += cover(&cur.vfsUntil, s.start, s.end, cur.kvEnd)
			switch {
			case s.class == fcWAL && s.name == spVFSWrite:
				k.walCalls++
				k.walBytes += int64(s.n)
				k.walNs += s.end - s.start
			case s.class == fcSST && s.name == spVFSReadAt:
				k.sstReads++
				k.sstReadBytes += int64(s.n)
			case s.class == fcSST && s.name == spVFSCreate:
				cur.createdSST = true
			}
		}
		a.opOf[i] = cur.idx
	}
	closeOp()
	return a
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// metrics turns the analysis into the span-derived per-layer metrics. A
// layer that is not on the workload's path reports nothing.
func (a *analysis) metrics(w workload, wallNs int64, scanned int64, userBytes float64) map[string]float64 {
	m := map[string]float64{}
	get, put, scan := &a.kinds[opGet], &a.kinds[opPut], &a.kinds[opScan]
	networked := w.backend != embedded
	us := func(ns int64, n int) float64 { return ratio(float64(ns)/1e3, float64(n)) }

	var opNs, harnessNs int64
	for k := range a.kinds {
		opNs += a.kinds[k].opNs
		harnessNs += a.kinds[k].opNs - a.kinds[k].kvNs
	}
	totalOps := get.ops + put.ops + scan.ops
	m["kv.harness_self_us"] = us(harnessNs, totalOps)

	// Engine self time: the engine-side span minus the vfs time inside it.
	engineSelf := func(k *kindStats) int64 {
		if networked {
			return k.srvNs - k.vfsNs
		}
		return k.kvNs - k.vfsNs
	}
	m["lsm.get_self_us"] = us(engineSelf(get), get.ops)
	m["lsm.put_self_us"] = us(put.plainSelfNs, int(put.plainOps))
	m["lsm.maintenance_us_per_put"] = us(put.maintEngineNs, put.ops)
	if scan.ops > 0 {
		m["lsm.scan_self_us"] = us(engineSelf(scan), scan.ops)
	}
	m["lsm.maintenance_frac"] = ratio(float64(put.maintOpNs), float64(wallNs))
	// Layer self times must add up to the op spans they decompose.
	var parts int64
	for k := range a.kinds {
		ks := &a.kinds[k]
		parts += (ks.opNs - ks.kvNs) + engineSelf(ks) + ks.vfsNs
		if networked {
			parts += ks.kvNs - ks.srvNs
		}
	}
	m["kv.self_sum_frac"] = ratio(float64(parts), float64(opNs))

	m["wal.bytes_per_put"] = ratio(float64(put.walBytes), float64(put.ops))
	m["wal.write_calls_per_put"] = ratio(float64(put.walCalls), float64(put.ops))
	m["wal.write_us_per_put"] = us(put.walNs, put.ops)
	m["sstable.readat_per_get"] = ratio(float64(get.sstReads), float64(get.ops))
	m["sstable.read_bytes_per_get"] = ratio(float64(get.sstReadBytes), float64(get.ops))

	for prefix, name := range map[string]spanName{"vfs.write": spVFSWrite, "vfs.readat": spVFSReadAt} {
		t := a.totals[name]
		m[prefix+"_calls"] = float64(t.calls)
		m[prefix+"_bytes"] = float64(t.n)
		m[prefix+"_ms"] = float64(t.ns) / 1e6
	}
	m["vfs.sync_calls"] = float64(a.totals[spVFSSync].calls)
	m["vfs.sync_ms"] = float64(a.totals[spVFSSync].ns) / 1e6
	m["vfs.creates"] = float64(a.totals[spVFSCreate].calls)
	m["vfs.removes"] = float64(a.totals[spVFSRemove].calls)
	m["vfs.bytes_written_per_user_byte"] = ratio(float64(a.totals[spVFSWrite].n), userBytes)

	if networked {
		m["kvnet.get_wire_us"] = median(get.wire) / 1e3
		m["kvnet.put_wire_us"] = median(put.wire) / 1e3
		m["kvnet.round_trips_per_op"] = ratio(float64(get.srvCalls+put.srvCalls+scan.srvCalls), float64(totalOps))
		if scan.ops > 0 {
			m["kvnet.scan_overfetch"] = ratio(float64(scan.srvEntries), float64(scanned))
		}
	}
	if w.backend == remote {
		m["store.put_self_us"] = us(put.plainSelfNs, int(put.plainOps))
	}
	if w.backend == clustered {
		// Counted over the whole phase, so calls that outlive their op
		// (the third replica of a W=2 write, read repair) are included.
		m["cluster.replica_calls_per_get"] = ratio(float64(a.totals[spSrvGet].calls), float64(get.ops))
		m["cluster.replica_calls_per_put"] = ratio(float64(a.totals[spSrvPut].calls), float64(put.ops))
		m["cluster.router_get_self_us"] = us(get.kvNs-get.srvNs, get.ops)
		m["cluster.router_put_self_us"] = us(put.kvNs-put.srvNs, put.ops)
	}
	return m
}

// traceFileSpans caps the spans written to the trace file; the analysis
// always uses all of them.
const traceFileSpans = 200_000

// writeTrace writes the first traceFileSpans spans in start order as
// {name, start, end, parent, op} rows, with the env stamp.
func writeTrace(path string, env envStamp, w workload, spans []span, a *analysis) error {
	f, err := vfs.Default.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	head, err := json.Marshal(map[string]any{
		"env": env, "workload": w.name, "names": spanNames, "classes": fileClassNames,
		"columns":     []string{"name", "class", "start_ns", "end_ns", "parent", "op", "n"},
		"total_spans": len(spans), "background_spans": a.background,
	})
	if err != nil {
		f.Close()
		return err
	}
	// head is a JSON object; splice the rows in before its closing brace.
	bw.Write(head[:len(head)-1])
	bw.WriteString(`,"spans":[`)
	written := a.order[:min(len(a.order), traceFileSpans)]
	row := make([]int32, len(spans)) // span index -> row, for parent and op references
	for i := range row {
		row[i] = -1
	}
	for r, i := range written {
		row[i] = int32(r)
	}
	ref := func(i int32) int32 {
		if i < 0 {
			return -1
		}
		return row[i]
	}
	for r, i := range written {
		s := &spans[i]
		if r > 0 {
			bw.WriteByte(',')
		}
		fmt.Fprintf(bw, "\n[%d,%d,%d,%d,%d,%d,%d]", s.name, s.class, s.start, s.end, ref(a.parent[i]), ref(a.opOf[i]), s.n)
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
