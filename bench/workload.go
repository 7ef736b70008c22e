package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"

	"repro/internal/ycsb"
)

// Engine configuration shared by every workload and by both sides of any
// comparison; see README.md for why each value was chosen.
const (
	memtableBytes = 1 << 20 // >= 30 flush cycles per run, so write amp has levelled off
	livePolicy    = "BT(I)" // the paper's heuristic as the live minor-compaction picker
	fanIn         = 4
	valueLen      = 100
	keyLen        = 20
	scanMaxLen    = 100
	warmupFrac    = 0.05 // untimed ops before the measured phase, as a share of it
	traceFrac     = 0.2  // the traced run's ops, as a share of the timed run's
	setupReps     = 3    // set-ups per run; setup_s is their median
	minRecords    = 200  // floor for -scale, so a scaled-down run still flushes and scans
)

type backendKind int

const (
	embedded backendKind = iota
	remote
	clustered
)

// workload is one row of the benchmark's workload table. opsPerSec is
// frozen: it was chosen so the measured phase takes about -seconds at the
// commit that added the harness, and it is the same on every later commit,
// so a run always executes opsPerSec × seconds operations.
type workload struct {
	name       string
	backend    backendKind
	shards     int
	clients    int
	records    int
	cacheBytes int
	getPct     float64
	updatePct  float64
	scanPct    float64
	dist       ycsb.Distribution
	preCompact bool // load with the live picker off, flush, major-compact, reopen
	opsPerSec  int
	why        string
}

var workloads = []workload{
	{
		name: "update_heavy", backend: embedded, shards: 1, clients: 1,
		records: 100_000, cacheBytes: 32 << 20,
		getPct: 50, updatePct: 50, dist: ycsb.Zipfian,
		opsPerSec: 210_000,
		why:       "write path: commit queue, WAL, memtable, flush and live BT(I) picks; reads are hot cache hits",
	},
	{
		name: "read_cold", backend: embedded, shards: 1, clients: 1,
		records: 300_000, cacheBytes: 2 << 20,
		getPct: 90, updatePct: 5, scanPct: 5, dist: ycsb.Uniform,
		preCompact: true,
		opsPerSec:  30_000,
		why:        "read path: filter, partitioned index and block decode with data 18x the block cache; set-up runs the major compaction",
	},
	{
		name: "remote_mixed", backend: remote, shards: 2, clients: 2,
		records: 100_000, cacheBytes: 8 << 20,
		getPct: 50, updatePct: 40, scanPct: 10, dist: ycsb.Zipfian,
		opsPerSec: 3_700,
		why:       "kv.Dial over loopback to a 2-shard store: kvnet framing, the connection mutex, scan over-fetch and shard merge",
	},
	{
		name: "cluster_mixed", backend: clustered, shards: 1, clients: 2,
		records: 50_000, cacheBytes: 32 << 20,
		getPct: 50, updatePct: 50, dist: ycsb.Zipfian,
		opsPerSec: 13_000,
		why:       "kv.DialCluster N=3 W=2 R=2: quorum fan-out, record envelope and read repair over three kvnet legs",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scaled shrinks the data set for smoke tests; the gated numbers always
// use scale 1.
func (w workload) scaled(scale float64) workload {
	if scale != 1 {
		w.records = int(float64(w.records) * scale)
		if w.records < minRecords {
			w.records = minRecords
		}
	}
	return w
}

// logicalBytes is the size of the live records the harness wrote: updates
// overwrite, so it does not grow during a run.
func (w workload) logicalBytes() float64 { return float64(w.records) * (keyLen + valueLen) }

type opKind uint8

const (
	opGet opKind = iota
	opPut
	opScan
	numOpKinds
)

var opKindNames = [numOpKinds]string{"get", "put", "scan"}

// op is one pre-generated operation: the record's slot in the key table,
// not the key itself, so the harness can find the record's version
// counters without a map lookup on the measured path.
type op struct {
	slot    uint32
	kind    opKind
	scanLen uint8
}

// inputs is everything the program receives: the loaded key set and each
// client's operation stream (warm-up ops first). It depends only on the
// workload, the scale and the seed.
type inputs struct {
	keys   []uint64 // slot -> key id
	warmup [][]op   // per client
	run    [][]op   // per client
}

// generate builds the inputs from the seed. Every slot is updated by one
// client only (slot mod clients), so versions acknowledged for a key are
// issued in order and "a Get returns a version >= the last acked one" is
// checkable under concurrency.
func generate(w workload, seed int64, runOps int) (*inputs, error) {
	in := &inputs{keys: make([]uint64, w.records)}
	slotOf := make(map[uint64]uint32, w.records)
	perClient := runOps / w.clients
	warm := int(float64(perClient) * warmupFrac)
	for c := 0; c < w.clients; c++ {
		g, err := ycsb.NewGenerator(ycsb.Config{
			RecordCount:      w.records,
			OperationCount:   warm + perClient,
			UpdateProportion: w.updatePct,
			ReadProportion:   w.getPct,
			ScanProportion:   w.scanPct,
			Distribution:     w.dist,
			Seed:             seed*131 + int64(c),
		})
		if err != nil {
			return nil, err
		}
		for i := 0; ; i++ {
			o, ok := g.NextLoad()
			if !ok {
				break
			}
			if c == 0 {
				in.keys[i] = o.Key
				slotOf[o.Key] = uint32(i)
			}
		}
		lens := rand.New(rand.NewSource(seed*131 + 64 + int64(c)))
		ops := make([]op, 0, warm+perClient)
		for {
			o, ok := g.NextRun()
			if !ok {
				break
			}
			slot, found := slotOf[o.Key]
			if !found {
				return nil, fmt.Errorf("generator produced key %d outside the loaded set", o.Key)
			}
			switch o.Kind {
			case ycsb.OpRead:
				ops = append(ops, op{slot: slot, kind: opGet})
			case ycsb.OpScan:
				ops = append(ops, op{slot: slot, kind: opScan, scanLen: uint8(1 + lens.Intn(scanMaxLen))})
			case ycsb.OpUpdate:
				own := slot - slot%uint32(w.clients) + uint32(c)
				if int(own) >= w.records {
					own -= uint32(w.clients)
				}
				ops = append(ops, op{slot: own, kind: opPut})
			default:
				return nil, fmt.Errorf("unexpected op kind %v", o.Kind)
			}
		}
		in.warmup = append(in.warmup, ops[:warm])
		in.run = append(in.run, ops[warm:])
	}
	return in, nil
}

const hexDigits = "0123456789abcdef"

// putKey writes the 20-byte key of id into dst: "user" + 16 hex digits.
func putKey(dst *[keyLen]byte, id uint64) {
	copy(dst[:4], "user")
	for i := 0; i < 16; i++ {
		dst[4+i] = hexDigits[(id>>(60-4*uint(i)))&15]
	}
}

// keyID parses a key written by putKey.
func keyID(key []byte) (uint64, bool) {
	if len(key) != keyLen || string(key[:4]) != "user" {
		return 0, false
	}
	var id uint64
	for _, c := range key[4:] {
		switch {
		case c >= '0' && c <= '9':
			id = id<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			id = id<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return id, true
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// putValue fills the 100-byte value of (id, version): the key id, the
// version, and 88 pseudo-random bytes derived from both, so a value proves
// which write produced it and blocks do not compress unrealistically.
func putValue(dst *[valueLen]byte, id uint64, version uint32) {
	binary.BigEndian.PutUint64(dst[0:8], id)
	binary.BigEndian.PutUint32(dst[8:12], version)
	x := id ^ uint64(version)<<32
	for off := 12; off < valueLen; off += 8 {
		x = splitmix(x)
		binary.LittleEndian.PutUint64(dst[off:off+8], x)
	}
}

// checkValue verifies that v is exactly what putValue wrote for id at some
// version and returns that version.
func checkValue(v []byte, id uint64) (uint32, bool) {
	if len(v) != valueLen || binary.BigEndian.Uint64(v[0:8]) != id {
		return 0, false
	}
	version := binary.BigEndian.Uint32(v[8:12])
	x := id ^ uint64(version)<<32
	for off := 12; off < valueLen; off += 8 {
		x = splitmix(x)
		if binary.LittleEndian.Uint64(v[off:off+8]) != x {
			return 0, false
		}
	}
	return version, true
}
