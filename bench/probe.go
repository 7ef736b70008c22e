package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/compaction"
	"repro/internal/iterator"
	"repro/internal/kvnet"
	"repro/internal/lsm"
	"repro/internal/memtable"
	"repro/internal/sstable"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Probes time each layer's public functions directly, after the traced
// phase, against the directory the workload left behind: the tables are the
// ones the run produced, at the sizes and shapes it produced them.

const (
	probeLookups = 20_000
	probeEntries = 50_000
)

// perCall times n calls of fn and returns nanoseconds per call.
func perCall(n int, fn func(i int) error) (float64, error) {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n), nil
}

// probeDir is one LSM partition of the closed system: the engine's own
// directory, or the first node's (first shard's) for a network workload.
func (s *system) probeDir() string {
	if len(s.nodes) == 0 {
		return s.dir
	}
	if s.w.shards > 1 {
		return filepath.Join(s.nodes[0].dir, "shard-000")
	}
	return s.nodes[0].dir
}

// runProbes returns the probe metrics for one closed partition directory.
func runProbes(w workload, seed int64, dir string) (map[string]float64, error) {
	m := map[string]float64{}
	rng := rand.New(rand.NewSource(seed))
	if err := probeSSTable(m, rng, dir); err != nil {
		return nil, fmt.Errorf("sstable probe: %w", err)
	}
	if err := probeMemtable(m, rng); err != nil {
		return nil, fmt.Errorf("memtable probe: %w", err)
	}
	if err := probeWAL(m, dir); err != nil {
		return nil, fmt.Errorf("wal probe: %w", err)
	}
	if err := probeCache(m, rng); err != nil {
		return nil, fmt.Errorf("cache probe: %w", err)
	}
	if err := probePick(m, w, dir); err != nil {
		return nil, fmt.Errorf("compaction probe: %w", err)
	}
	if w.backend != embedded {
		if err := probeNullRTT(m); err != nil {
			return nil, fmt.Errorf("kvnet probe: %w", err)
		}
	}
	return m, nil
}

// largestTable returns the path of the biggest .sst under dir.
func largestTable(dir string) (string, error) {
	entries, err := vfs.Default.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var best string
	var bestSize int64
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".sst") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return "", err
		}
		if info.Size() > bestSize {
			best, bestSize = filepath.Join(dir, e.Name()), info.Size()
		}
	}
	if best == "" {
		return "", fmt.Errorf("no sstable in %s", dir)
	}
	return best, nil
}

// probeSSTable times the table layer on the run's largest table with no
// block cache: present and absent point lookups, a full scan, and
// re-writing its first entries to io.Discard.
func probeSSTable(m map[string]float64, rng *rand.Rand, dir string) error {
	path, err := largestTable(dir)
	if err != nil {
		return err
	}
	rd, err := sstable.OpenFS(vfs.Default, path, nil)
	if err != nil {
		return err
	}
	defer rd.Close()

	var entries []iterator.Entry
	for it := rd.Iter(); it.Valid() && len(entries) < probeEntries; it.Next() {
		e := it.Entry()
		e.Key, e.Value = append([]byte(nil), e.Key...), append([]byte(nil), e.Value...)
		entries = append(entries, e)
	}
	if len(entries) == 0 {
		return fmt.Errorf("%s is empty", path)
	}
	t0 := time.Now()
	n := 0
	it := rd.Iter()
	for ; it.Valid(); it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		return err
	}
	m["sstable.scan_ns_per_entry"] = float64(time.Since(t0).Nanoseconds()) / float64(n)

	ns, err := perCall(probeLookups, func(int) error {
		_, _, err := rd.GetEntry(entries[rng.Intn(len(entries))].Key)
		return err
	})
	if err != nil {
		return err
	}
	m["sstable.cold_get_us"] = ns / 1e3

	absent := make([]byte, 0, keyLen+1)
	ns, err = perCall(probeLookups, func(int) error {
		// One byte longer than a real key: inside the table's key range,
		// never present, so the filter and (on a false positive) one
		// block answer it.
		absent = append(append(absent[:0], entries[rng.Intn(len(entries))].Key...), '!')
		if _, _, err := rd.GetEntry(absent); !errors.Is(err, sstable.ErrNotFound) {
			return fmt.Errorf("absent key: %v", err)
		}
		return nil
	})
	if err != nil {
		return err
	}
	m["sstable.absent_get_us"] = ns / 1e3

	t0 = time.Now()
	wr := sstable.NewWriter(io.Discard, len(entries))
	for _, e := range entries {
		if err := wr.Add(e); err != nil {
			return err
		}
	}
	if err := wr.Finish(); err != nil {
		return err
	}
	m["sstable.write_ns_per_entry"] = float64(time.Since(t0).Nanoseconds()) / float64(len(entries))
	return nil
}

// probeMemtable fills a memtable to the run's flush threshold, timing the
// inserts, then times lookups at that size.
func probeMemtable(m map[string]float64, rng *rand.Rand) error {
	var (
		key [keyLen]byte
		val [valueLen]byte
		ids []uint64
	)
	mt := memtable.New(1)
	t0 := time.Now()
	for mt.SizeBytes() < memtableBytes {
		id := rng.Uint64()
		putKey(&key, id)
		putValue(&val, id, 1)
		mt.Put(append([]byte(nil), key[:]...), append([]byte(nil), val[:]...), uint64(len(ids)+1))
		ids = append(ids, id)
	}
	m["memtable.put_ns"] = float64(time.Since(t0).Nanoseconds()) / float64(len(ids))
	ns, err := perCall(probeLookups, func(int) error {
		putKey(&key, ids[rng.Intn(len(ids))])
		if _, ok := mt.Get(key[:]); !ok {
			return errors.New("inserted key not found")
		}
		return nil
	})
	m["memtable.get_ns"] = ns
	return err
}

// probeWAL appends single-record frames, the shape a lone Put commits.
func probeWAL(m map[string]float64, dir string) error {
	path := filepath.Join(dir, "probe-wal.log")
	wr, err := wal.Create(vfs.Default, path)
	if err != nil {
		return err
	}
	var (
		key [keyLen]byte
		val [valueLen]byte
	)
	rec := []wal.Record{{Op: wal.OpPut, Key: key[:], Value: val[:]}}
	ns, err := perCall(probeEntries, func(i int) error {
		putKey(&key, uint64(i))
		rec[0].Seq = uint64(i + 1)
		return wr.AppendBatch(rec)
	})
	if cerr := wr.Close(); err == nil {
		err = cerr
	}
	if rerr := vfs.Default.Remove(path); err == nil {
		err = rerr
	}
	m["wal.append_ns_per_record"] = ns
	return err
}

// probeCache times hits on a block cache holding 4 KiB blocks.
func probeCache(m map[string]float64, rng *rand.Rand) error {
	const blocks = 1024
	c := cache.NewSharded(8<<20, 0)
	for i := 0; i < blocks; i++ {
		c.Put(cache.Key{Table: 1, Offset: uint64(i) * 4096}, make([]byte, 4096))
	}
	ns, err := perCall(probeLookups*10, func(int) error {
		if _, ok := c.Get(cache.Key{Table: 1, Offset: uint64(rng.Intn(blocks)) * 4096}); !ok {
			return errors.New("cached block missing")
		}
		return nil
	})
	m["cache.get_hit_ns"] = ns
	return err
}

// probePick reopens the partition and times the live picker on the table
// set the run ended with.
func probePick(m map[string]float64, w workload, dir string) error {
	db, err := lsm.Open(dir, lsm.Options{MemtableBytes: memtableBytes, BlockCacheBytes: -1})
	if err != nil {
		return err
	}
	infos := db.TableInfos()
	live := make([]compaction.LiveTable, len(infos))
	for i, t := range infos {
		live[i] = compaction.LiveTable{SizeBytes: t.SizeBytes, Entries: int(t.Entries), Smallest: t.Smallest, Largest: t.Largest, Sketch: t.Sketch}
	}
	ns, err := perCall(200, func(int) error {
		_, err := compaction.PickLive(live, livePolicy, fanIn, 1)
		return err
	})
	if cerr := db.Close(); err == nil {
		err = cerr
	}
	m["compaction.pick_us"] = ns / 1e3
	return err
}

// nullEngine answers every request at once, so a round trip to it costs
// only the kvnet layer and the loopback socket.
type nullEngine struct{ value []byte }

func (e nullEngine) PutContext(context.Context, []byte, []byte) error    { return nil }
func (e nullEngine) GetContext(context.Context, []byte) ([]byte, error)  { return e.value, nil }
func (e nullEngine) DeleteContext(context.Context, []byte) error         { return nil }
func (e nullEngine) WriteContext(context.Context, *lsm.WriteBatch) error { return nil }
func (e nullEngine) Flush() error                                        { return nil }
func (e nullEngine) Stats() lsm.Stats                                    { return lsm.Stats{} }
func (e nullEngine) RangeContext(context.Context, []byte, []byte, func(k, v []byte) error) error {
	return nil
}
func (e nullEngine) MajorCompact(string, int, int64) (*lsm.CompactionResult, error) {
	return &lsm.CompactionResult{}, nil
}

func probeNullRTT(m map[string]float64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := kvnet.NewServer(nullEngine{value: make([]byte, valueLen)})
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns net.ErrClosed after srv.Close
	}()
	defer func() {
		srv.Close()
		<-served
	}()
	c, err := kvnet.Dial(ln.Addr().String())
	if err != nil {
		return err
	}
	defer c.Close()
	var key [keyLen]byte
	ctx := context.Background()
	ns, err := perCall(probeLookups, func(i int) error {
		putKey(&key, uint64(i))
		_, err := c.Get(ctx, key[:])
		return err
	})
	m["kvnet.null_rtt_us"] = ns / 1e3
	return err
}
