package experiments

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"repro/internal/compaction"
	"repro/internal/vfs"
	"repro/internal/ycsb"
	"repro/kv"
)

// EngineMix is one write stream of the engine matrix: a YCSB load of
// Records inserts, then Ops operations of which the Update fraction are
// updates over Distribution and the rest inserts.
type EngineMix struct {
	Name         string            `json:"name"`
	Update       float64           `json:"update"`
	Distribution ycsb.Distribution `json:"-"`
	Records      int               `json:"records"`
	Ops          int               `json:"ops"`
}

// EngineMixes are the matrix's streams, each long enough for BT(I) to make
// at least three minor picks: update_heavy's 50 % zipfian updates, the
// 97 % latest updates the paper presents, and an insert-heavy 10 % uniform.
var EngineMixes = []EngineMix{
	{Name: "update50-zipfian", Update: 0.5, Distribution: ycsb.Zipfian, Records: 1_000, Ops: 4_000},
	{Name: "update97-latest", Update: 0.97, Distribution: ycsb.Latest, Records: 2_000, Ops: 4_000},
	{Name: "update10-uniform", Update: 0.1, Distribution: ycsb.Uniform, Records: 500, Ops: 3_500},
}

// The settings every cell shares. A value is YCSB's default record size,
// which keeps the entries per 256 KiB memtable, and so the run time, small.
const (
	engineK          = 4
	engineEntryBytes = len("user") + 16 + engineValueBytes
	engineValueBytes = 1000
	engineBatch      = 64 // puts per write: fewer WAL write calls, the same counts
)

// EngineCell is one (mix, policy) cell of the matrix. Every field but the
// closing major compaction's two is read after the stream and its closing
// flush.
type EngineCell struct {
	Mix    string `json:"mix"`
	Policy string `json:"policy"`
	// WriteAmp is (bytes flushed + bytes compacted) / bytes flushed.
	WriteAmp float64 `json:"write_amp"`
	// SpaceAmp is the live table bytes over the distinct keys written
	// times the entry bytes (key plus value).
	SpaceAmp       float64 `json:"space_amp"`
	Flushes        int     `json:"flushes"`
	MinorPicks     int     `json:"minor_picks"`
	TablesLeft     int     `json:"tables_left"`
	VersionsPurged uint64  `json:"versions_purged"`
	// MajorCost and MajorBytesWritten are the closing BT(I) major
	// compaction's measured costactual (keys) and output bytes.
	MajorCost         int    `json:"major_cost_actual"`
	MajorBytesWritten uint64 `json:"major_bytes_written"`
}

// EngineMatrix runs every EngineMixes stream through a fresh engine under
// every minor policy the engine accepts except "none" (the baselines, then
// the paper's live strategies), each cell in its own directory under dir,
// and returns the cells mix by mix in policy order. One writer and one
// shard make every count a function of the stream and the policy alone;
// cells share nothing, so four run at once.
func EngineMatrix(dir string) ([]EngineCell, error) {
	policies := append(compaction.Baselines(), compaction.LiveStrategies()...)
	cells := make([]EngineCell, len(EngineMixes)*len(policies))
	return cells, inParallel(len(cells), func(i int) (err error) {
		mix, policy := EngineMixes[i/len(policies)], policies[i%len(policies)]
		if cells[i], _, err = engineCell(filepath.Join(dir, strconv.Itoa(i)), mix, policy, unsynced{vfs.Default}); err != nil {
			err = fmt.Errorf("engine matrix %s %s: %w", mix.Name, policy, err)
		}
		return err
	})
}

// inParallel runs f(0) to f(n-1), four at a time, and joins their errors.
func inParallel(n int, f func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	slots := make(chan struct{}, 4)
	for i := range errs {
		wg.Add(1)
		slots <- struct{}{}
		go func() {
			defer func() { <-slots; wg.Done() }()
			errs[i] = f(i)
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// engineCell writes mix's stream through a fresh engine on fsys with policy
// as its minor picker and 256 KiB memtables, flushes, reads the stream's
// counts and its write stalls, then runs one BT(I) major compaction.
func engineCell(dir string, mix EngineMix, policy string, fsys vfs.FS) (_ EngineCell, stalls int, err error) {
	ctx := context.Background()
	eng, err := kv.Open(dir, kv.WithShards(1), kv.WithMemtableBytes(256<<10), kv.WithAutoCompact(policy),
		kv.WithCompactionStrategy("BT(I)", engineK), kv.WithFS(fsys))
	if err != nil {
		return EngineCell{}, 0, err
	}
	defer func() { err = errors.Join(err, eng.Close()) }()
	gen, err := ycsb.NewGenerator(ycsb.Config{RecordCount: mix.Records, OperationCount: mix.Ops,
		UpdateProportion: mix.Update, InsertProportion: 1 - mix.Update, Distribution: mix.Distribution, Seed: 7})
	if err != nil {
		return EngineCell{}, 0, err
	}
	value := []byte(strings.Repeat("x", engineValueBytes))
	ops := gen.All()
	var b kv.Batch
	for i, op := range ops {
		b.Put(fmt.Appendf(nil, "user%016x", op.Key), value)
		if b.Len() == engineBatch || i == len(ops)-1 {
			if err := eng.Write(ctx, &b); err != nil {
				return EngineCell{}, 0, err
			}
			b.Reset()
		}
	}
	if err := eng.Flush(ctx); err != nil {
		return EngineCell{}, 0, err
	}
	st, err := eng.Stats(ctx)
	if err != nil {
		return EngineCell{}, 0, err
	}
	info, err := eng.Compact(ctx, &kv.CompactOptions{Strategy: "BT(I)", K: engineK})
	if err != nil {
		return EngineCell{}, 0, err
	}
	return EngineCell{
		Mix:               mix.Name,
		Policy:            policy,
		WriteAmp:          float64(st.BytesFlushed+st.BytesCompacted) / float64(st.BytesFlushed),
		SpaceAmp:          float64(st.TableBytes) / float64(gen.InsertedKeys()*uint64(engineEntryBytes)),
		Flushes:           st.Flushes,
		MinorPicks:        st.MinorCompactions,
		TablesLeft:        st.Tables,
		VersionsPurged:    st.VersionsPurged,
		MajorCost:         info.CostActual,
		MajorBytesWritten: info.BytesWritten,
	}, st.WriteStalls, nil
}

// unsynced is a filesystem whose fsyncs do nothing: no count depends on
// what would survive a crash, and the syncs are most of a cell's wall time.
type unsynced struct{ vfs.FS }

func (u unsynced) Create(path string) (vfs.File, error) {
	f, err := u.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return unsyncedFile{f}, nil
}

func (unsynced) SyncDir(string) error { return nil }

type unsyncedFile struct{ vfs.File }

func (unsyncedFile) Sync() error { return nil }

// FormatEngineMatrix renders the cells as one Markdown table, a row per
// cell in the order given.
func FormatEngineMatrix(cells []EngineCell) string {
	var b strings.Builder
	fmt.Fprintln(&b, "| mix | policy | write amp | space amp | flushes | minor picks | tables left | versions purged | major cost (keys) | major MB written |")
	fmt.Fprintln(&b, "|---|---|---|---|---|---|---|---|---|---|")
	for _, c := range cells {
		fmt.Fprintf(&b, "| %s | %s | %.2f | %.2f | %d | %d | %d | %d | %d | %.2f |\n",
			c.Mix, c.Policy, c.WriteAmp, c.SpaceAmp, c.Flushes, c.MinorPicks, c.TablesLeft,
			c.VersionsPurged, c.MajorCost, float64(c.MajorBytesWritten)/1e6)
	}
	return b.String()
}
