package lsm

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/compaction"
	"repro/internal/kverr"
	"repro/internal/model"
)

func infos(sizes ...uint64) []TableInfo {
	out := make([]TableInfo, len(sizes))
	for i, s := range sizes {
		out[i] = TableInfo{Name: fmt.Sprintf("%06d.sst", i), LiveTable: compaction.LiveTable{SizeBytes: s, Entries: int(s / 10)}}
	}
	return out
}

// picked returns the indices of the tables p merges next, nil for none.
func picked(t testing.TB, p *Policy, tables []TableInfo) []int {
	t.Helper()
	live := make([]compaction.LiveTable, len(tables))
	for i, info := range tables {
		live[i] = info.LiveTable
	}
	sc, err := p.pick(live)
	if err != nil {
		t.Fatalf("%s: %v", p.Name(), err)
	}
	if sc == nil {
		return nil
	}
	var idx []int
	for _, leaf := range sc.Leaves {
		idx = append(idx, leaf.TableID)
	}
	return idx
}

// tuned is the engine's policy for a baseline chooser tuned as a test
// needs, with fan-in k (0 for uncapped); each pick gets a fresh copy of cfg.
func tuned[C any, P interface {
	*C
	compaction.Chooser
}](k int, cfg C) *Policy {
	return &Policy{name: P(&cfg).Name(), k: k, chooser: func() compaction.Chooser {
		c := cfg
		return P(&c)
	}}
}

func mustPolicy(t testing.TB, name string, k int) *Policy {
	t.Helper()
	p, err := PolicyByName(name, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestThresholdPolicy(t *testing.T) {
	p := tuned(3, compaction.Threshold{MaxTables: 4})
	if got := picked(t, p, infos(10, 20, 30)); got != nil {
		t.Errorf("below threshold picked %v", got)
	}
	got := picked(t, p, infos(40, 10, 30, 20))
	if len(got) != 3 {
		t.Fatalf("picked %v, want 3 smallest", got)
	}
	// Indices of the three smallest: 1 (10), 3 (20), 2 (30).
	want := map[int]bool{1: true, 3: true, 2: true}
	for _, i := range got {
		if !want[i] {
			t.Errorf("picked index %d, want smallest three", i)
		}
	}
	// Defaults clamp sensibly.
	d := mustPolicy(t, "threshold", 4)
	if picked(t, d, infos(1, 2, 3)) != nil {
		t.Errorf("default policy fired below default threshold")
	}
	if got := picked(t, d, infos(1, 2, 3, 4, 5, 6, 7, 8)); len(got) != 4 {
		t.Errorf("default fanin = %d", len(got))
	}
}

func TestSizeTieredPolicyBuckets(t *testing.T) {
	p := tuned(32, compaction.SizeTiered{MinThreshold: 3})
	// Four similar-sized tables and two much larger ones: the similar
	// bucket must be chosen.
	got := picked(t, p, infos(100, 110, 5000, 95, 105, 9000))
	if len(got) != 4 {
		t.Fatalf("picked %v, want the 4 similar tables", got)
	}
	for _, i := range got {
		if s := []uint64{100, 110, 5000, 95, 105, 9000}[i]; s > 200 {
			t.Errorf("picked a large table (size %d)", s)
		}
	}
	// No bucket reaches the threshold: nothing to do.
	if got := picked(t, p, infos(10, 1000, 100000)); got != nil {
		t.Errorf("picked %v from dissimilar tables", got)
	}
	// The fan-in caps the group.
	capped := tuned(3, compaction.SizeTiered{MinThreshold: 2})
	if got := picked(t, capped, infos(10, 10, 10, 10, 10, 10)); len(got) != 3 {
		t.Errorf("cap ignored: picked %d tables", len(got))
	}
}

func TestSizeTieredEmptyAndSingle(t *testing.T) {
	p := mustPolicy(t, "size-tiered", 4)
	if picked(t, p, nil) != nil || picked(t, p, infos(5)) != nil {
		t.Errorf("degenerate inputs should pick nothing")
	}
}
func TestMinorCompactMergesAndKeepsData(t *testing.T) {
	db := openTestDB(t, Options{})
	want := fillTables(t, db, 6, 150)
	res, ran, err := db.minorCompact(tuned(4, compaction.Threshold{MaxTables: 2}))
	if err != nil || !ran {
		t.Fatalf("MinorCompact: ran=%v err=%v", ran, err)
	}
	if res.TablesBefore != 4 || res.BytesWritten == 0 {
		t.Errorf("result = %+v", res)
	}
	if got := db.Stats().Tables; got != 3 { // 6 - 4 + 1
		t.Errorf("tables after = %d, want 3", got)
	}
	model.Check(t, dbReader{db}, want)
}

func TestMinorCompactKeepsTombstones(t *testing.T) {
	db := openTestDB(t, Options{})
	if err := db.PutContext(context.Background(), []byte("k"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteContext(context.Background(), []byte("k")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.PutContext(context.Background(), []byte("other"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Merge only the newest two tables (tombstone + other): the tombstone
	// must survive to keep shadowing the oldest table's value.
	res, ran, err := db.minorCompact(pickIndices(1, 2))
	if err != nil || !ran {
		t.Fatalf("ran=%v err=%v", ran, err)
	}
	if res.TablesBefore != 2 {
		t.Fatalf("merged %d", res.TablesBefore)
	}
	if _, err := db.GetContext(context.Background(), []byte("k")); err != ErrNotFound {
		t.Errorf("tombstone dropped by minor compaction: %v", err)
	}
}

// fixedPick is a test chooser whose first pick is the leaves at idx.
type fixedPick struct {
	idx    []int
	leaves []*compaction.Node
}

func (c *fixedPick) Name() string                                { return "fixed" }
func (c *fixedPick) Init(leaves []*compaction.Node, _ int) error { c.leaves = leaves; return nil }
func (c *fixedPick) Observe(*compaction.Node)                    {}
func (c *fixedPick) Choose() ([]*compaction.Node, error) {
	group := make([]*compaction.Node, len(c.idx))
	for i, j := range c.idx {
		if j >= len(c.leaves) {
			return nil, fmt.Errorf("no table %d", j)
		}
		group[i] = c.leaves[j]
	}
	return group, nil
}

// pickIndices is a test policy merging the tables at idx, in the table
// set's order (oldest first), once there are at least two tables.
func pickIndices(idx ...int) *Policy {
	return &Policy{name: "fixed", k: len(idx), minTables: 2, chooser: func() compaction.Chooser { return &fixedPick{idx: idx} }}
}

// pickFirstN is a test policy merging the first (oldest) n tables once
// there are n.
func pickFirstN(n int) *Policy {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	p := pickIndices(idx...)
	p.minTables = n
	return p
}

func TestMinorCompactRejectsBadPolicy(t *testing.T) {
	db := openTestDB(t, Options{})
	fillTables(t, db, 3, 50)
	if _, _, err := db.minorCompact(pickIndices(0, 0)); err == nil {
		t.Errorf("duplicate indices accepted")
	}
}

func TestTableInfos(t *testing.T) {
	db := openTestDB(t, Options{})
	if got := db.TableInfos(); len(got) != 0 {
		t.Errorf("fresh store has %d tables", len(got))
	}
	fillTables(t, db, 3, 100)
	infos := db.TableInfos()
	if len(infos) != 3 {
		t.Fatalf("TableInfos = %d entries", len(infos))
	}
	for _, info := range infos {
		if info.Name == "" || info.SizeBytes == 0 || info.Entries == 0 {
			t.Errorf("incomplete info: %+v", info)
		}
	}
}

func TestMinorCompactNothingToDo(t *testing.T) {
	db := openTestDB(t, Options{})
	fillTables(t, db, 2, 50)
	_, ran, err := db.minorCompact(mustPolicy(t, "size-tiered", 4))
	if err != nil || ran {
		t.Errorf("ran=%v err=%v, want no-op", ran, err)
	}
}

func TestAutoCompactBoundsTables(t *testing.T) {
	db := openTestDB(t, Options{
		MemtableBytes: 8 << 10,
		AutoCompact:   tuned(4, compaction.Threshold{MaxTables: 4}),
	})
	for i := 0; i < 5000; i++ {
		k := []byte(fmt.Sprintf("key-%06d", i))
		if err := db.PutContext(context.Background(), k, []byte("some-value-payload")); err != nil {
			t.Fatal(err)
		}
	}
	st := db.Stats()
	if st.Tables >= 8 {
		t.Errorf("auto-compaction did not bound tables: %d live", st.Tables)
	}
	if st.MinorCompactions == 0 {
		t.Errorf("no minor compactions recorded")
	}
	// All data still readable.
	for i := 0; i < 5000; i += 211 {
		k := []byte(fmt.Sprintf("key-%06d", i))
		if _, err := db.GetContext(context.Background(), k); err != nil {
			t.Fatalf("Get(%s) = %v", k, err)
		}
	}
}

func TestMinorThenMajorCompaction(t *testing.T) {
	db := openTestDB(t, Options{})
	want := fillTables(t, db, 8, 100)
	if _, ran, err := db.minorCompact(tuned(32, compaction.SizeTiered{MinThreshold: 2})); err != nil || !ran {
		t.Fatalf("minor: ran=%v err=%v", ran, err)
	}
	if _, err := db.MajorCompact("SI", 2, 0); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().Tables; got != 1 {
		t.Errorf("tables after major = %d", got)
	}
	model.Check(t, dbReader{db}, want)
}

func TestGetPicksNewestAcrossNonAdjacentTables(t *testing.T) {
	// After a minor compaction merges non-adjacent tables, Get must still
	// resolve by sequence number, not table position.
	db := openTestDB(t, Options{})
	if err := db.PutContext(context.Background(), []byte("k"), []byte("v1")); err != nil { // oldest table
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ { // big middle table, no k
		if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("pad-%04d", i)), []byte("p")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.PutContext(context.Background(), []byte("k"), []byte("v2")); err != nil { // newest table
		t.Fatal(err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	// Merge oldest and newest (indices 0 and 2), skipping the middle. The
	// output takes the newest input's place, after the middle table.
	middle := db.TableInfos()[1].Name
	_, ran, err := db.minorCompact(pickIndices(0, 2))
	if err != nil || !ran {
		t.Fatalf("ran=%v err=%v", ran, err)
	}
	if infos := db.TableInfos(); len(infos) != 2 || infos[0].Name != middle {
		t.Errorf("tables after the merge: %+v; want %s, then the output", infos, middle)
	}
	got, err := db.GetContext(context.Background(), []byte("k"))
	if err != nil || string(got) != "v2" {
		t.Errorf("Get(k) = %q, %v; want v2", got, err)
	}
}

// TestOpenRejectsUnknownStrategy: a policy name the engine does not plan
// with, unknown or exact-set, fails PolicyByName — the resolver every front
// end runs before Open — with ErrConfig, rather than every pick after Open,
// and "" and "none" select no policy.
func TestOpenRejectsUnknownStrategy(t *testing.T) {
	for _, strategy := range []string{"nope", "LM", "SO(exact)"} {
		if _, err := PolicyByName(strategy, 4, 1); !errors.Is(err, kverr.ErrConfig) {
			t.Fatalf("PolicyByName(%q) = %v, want ErrConfig", strategy, err)
		}
	}
	for _, none := range []string{"", "none"} {
		if p, err := PolicyByName(none, 4, 1); p != nil || err != nil {
			t.Fatalf("PolicyByName(%q) = %v, %v; want no policy", none, p, err)
		}
	}
}
