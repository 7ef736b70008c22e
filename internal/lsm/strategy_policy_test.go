package lsm

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/compaction"
	"repro/internal/model"
)

// TestStrategyPolicyDrivesMinorCompaction: a registry strategy wired in
// as the minor-compaction policy actually compacts, keeps the data, and
// shows up in the write-amplification counters.
func TestStrategyPolicyDrivesMinorCompaction(t *testing.T) {
	for _, strategy := range compaction.LiveStrategies() {
		t.Run(strategy, func(t *testing.T) {
			db := openTestDB(t, Options{})
			want := fillTables(t, db, 5, 120)
			p := mustPolicy(t, strategy, 3)
			p.minTables = 2
			res, ran, err := db.minorCompact(p)
			if err != nil || !ran {
				t.Fatalf("minorCompact: ran=%v err=%v", ran, err)
			}
			if res.Strategy != strategy || res.TablesBefore < 2 {
				t.Errorf("result = %+v", res)
			}
			st := db.Stats()
			if st.BytesFlushed == 0 || st.BytesCompacted == 0 {
				t.Errorf("write-amp counters missing: flushed=%d compacted=%d",
					st.BytesFlushed, st.BytesCompacted)
			}
			if st.CompactionPicks[strategy] != 1 {
				t.Errorf("CompactionPicks = %v, want one %s pick", st.CompactionPicks, strategy)
			}
			model.Check(t, dbReader{db}, want)
		})
	}
}

// TestEnginePickIsPlansFirstStep: for every name PolicyByName accepts, the
// merge the engine runs is the first step of the full schedule
// compaction.Plan makes of the same TableInfos — the same tables, landing at
// the level the plan gives them — so the baselines are priced exactly as
// the paper's strategies are.
func TestEnginePickIsPlansFirstStep(t *testing.T) {
	for _, name := range append(compaction.Baselines(), compaction.LiveStrategies()...) {
		db := openTestDB(t, Options{})
		fillTables(t, db, 8, 200)
		infos := db.TableInfos()
		live := make([]compaction.LiveTable, len(infos))
		for i, info := range infos {
			live[i] = info.LiveTable
		}
		p := mustPolicy(t, name, 3)
		k := p.k
		if k == 0 {
			k = len(live)
		}
		plan, err := compaction.Plan(live, k, p.chooser())
		if err != nil {
			t.Fatalf("%s: Plan: %v", name, err)
		}
		if err := plan.Validate(); err != nil || plan.Root.Live.Entries == 0 {
			t.Fatalf("%s: Plan made no full schedule: %v", name, err)
		}
		want := map[string]bool{}
		for _, in := range plan.Steps[0].Inputs {
			want[infos[in.TableID].Name] = true
		}
		if _, ran, err := db.minorCompact(p); err != nil || !ran {
			t.Fatalf("%s: minorCompact: ran=%v err=%v", name, ran, err)
		}
		merged := map[string]bool{}
		for _, info := range infos {
			merged[info.Name] = true
		}
		level := -1
		for _, info := range db.TableInfos() {
			if merged[info.Name] {
				delete(merged, info.Name)
			} else {
				level = info.Level
			}
		}
		if !reflect.DeepEqual(merged, want) || level != plan.Steps[0].Output.Live.Level {
			t.Fatalf("%s: engine merged %v to level %d; Plan's first step merges %v to level %d",
				name, merged, level, want, plan.Steps[0].Output.Live.Level)
		}
	}
}

// TestMajorPlansOldestFirst: a major compaction plans from the tables in
// creation order, as a minor pick does, so the order-taking strategies fold
// the oldest tables first. Four flushes of 10, 20, 30 and 40 distinct keys:
// BT and CHAIN at k=2 first merge the 10 and the 20 (newest first, they
// merged the 40 and the 30).
func TestMajorPlansOldestFirst(t *testing.T) {
	for _, name := range []string{"BT", "CHAIN"} {
		db := openTestDB(t, Options{})
		for tab := 1; tab <= 4; tab++ {
			for i := 0; i < 10*tab; i++ {
				if err := db.PutContext(context.Background(), fmt.Appendf(nil, "t%d-%03d", tab, i), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		res, err := db.MajorCompact(name, 2, 1)
		if err != nil {
			t.Fatalf("%s: MajorCompact: %v", name, err)
		}
		if got := res.StepStats[0].EntriesIn; got != 30 {
			t.Fatalf("%s: first merge read %d entries, want 30 (the two oldest tables)", name, got)
		}
	}
}

// TestMinorPickMergesShadowedTables: four old tables of 400 keys each, every
// key overwritten by four newer flushes of 100 keys. Ranked by raw entry
// counts, BT(I) k=4 would merge the four fresh flushes; ranked by live keys,
// the old tables hold one each, so it merges them, and the purge drops all
// but a few of what the merge's dedup keeps.
func TestMinorPickMergesShadowedTables(t *testing.T) {
	db := openTestDB(t, Options{})
	put := func(from, to int, gen string) {
		for i := from; i < to; i++ {
			if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("key-%04d", i)), []byte(strings.Repeat(gen, 100))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for gen := 0; gen < 4; gen++ {
		put(0, 400, fmt.Sprint(gen))
	}
	old := map[string]bool{}
	for _, info := range db.TableInfos() {
		old[info.Name] = true
	}
	for part := 0; part < 4; part++ {
		put(100*part, 100*(part+1), "n")
	}
	infos := db.TableInfos()
	for _, info := range infos {
		lo, hi := 90, 100
		if old[info.Name] {
			lo, hi = 1, 1
		}
		if info.Entries < lo || info.Entries > hi {
			t.Errorf("table %s sized %d, want %d–%d", info.Name, info.Entries, lo, hi)
		}
	}
	res, ran, err := db.minorCompact(mustPolicy(t, "BT(I)", 4))
	if err != nil || !ran {
		t.Fatalf("minorCompact: ran=%v err=%v", ran, err)
	}
	merged := map[string]bool{}
	for _, info := range infos {
		merged[info.Name] = true
	}
	for _, info := range db.TableInfos() {
		delete(merged, info.Name)
	}
	if !reflect.DeepEqual(merged, old) {
		t.Fatalf("BT(I) merged %v; want the shadowed tables %v", merged, old)
	}
	out := res.StepStats[0].EntriesOut
	if out > 4 || out+res.VersionsPurged != 400 {
		t.Errorf("merge wrote %d entries and purged %d versions; want at most 4 written and 400 in all", out, res.VersionsPurged)
	}
	for i := 0; i < 400; i++ {
		if v, err := db.GetContext(context.Background(), []byte(fmt.Sprintf("key-%04d", i))); err != nil || string(v) != strings.Repeat("n", 100) {
			t.Fatalf("Get(key-%04d) = %.10q, %v after the merge", i, v, err)
		}
	}
}

// TestTableInfosCarrySketches: flush outputs carry the sketch their file's
// bounds block persists, which the policies rank with, surviving reopen.
func TestTableInfosCarrySketches(t *testing.T) {
	t.Run("v3", func(t *testing.T) {
		dir := t.TempDir()
		db, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		fillTables(t, db, 3, 100)
		for _, info := range db.TableInfos() {
			if info.Sketch == nil {
				t.Fatalf("table %s has no sketch before reopen", info.Name)
			}
			if e := info.Sketch.Estimate(); e < 50 || e > 200 {
				t.Errorf("table %s sketch estimate %.0f, want ≈100", info.Name, e)
			}
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		db, err = Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		for _, info := range db.TableInfos() {
			if info.Sketch == nil {
				t.Fatalf("table %s lost its sketch across reopen", info.Name)
			}
		}
	})
}

// TestPolicyByName resolves every front-end policy name and rejects the
// rest.
func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]string{
		"size-tiered": "size-tiered",
		"threshold":   "threshold",
		"leveled":     "leveled",
		"SI":          "SI",
		"BT(O)":       "BT(O)",
	} {
		p, err := PolicyByName(name, 4, 1)
		if err != nil || p == nil || p.Name() != want {
			t.Errorf("PolicyByName(%q) = %v, %v", name, p, err)
		}
	}
	for _, name := range []string{"", "none"} {
		if p, err := PolicyByName(name, 4, 1); err != nil || p != nil {
			t.Errorf("PolicyByName(%q) = %v, %v; want nil, nil", name, p, err)
		}
	}
	// Exact-set strategies and typos are rejected with the accepted list.
	for _, name := range []string{"LM", "SO(exact)", "level", "bogus"} {
		_, err := PolicyByName(name, 4, 1)
		if err == nil || !strings.Contains(err.Error(), "size-tiered") {
			t.Errorf("PolicyByName(%q) err = %v, want listing error", name, err)
		}
	}
}
