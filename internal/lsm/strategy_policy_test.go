package lsm

import (
	"context"
	"strings"
	"testing"

	"repro/internal/compaction"
)

// TestStrategyPolicyDrivesMinorCompaction: a registry strategy wired in
// as the minor-compaction policy actually compacts, keeps the data, and
// shows up in the write-amplification counters.
func TestStrategyPolicyDrivesMinorCompaction(t *testing.T) {
	for _, strategy := range compaction.LiveStrategies() {
		t.Run(strategy, func(t *testing.T) {
			db := openTestDB(t, Options{})
			want := fillTables(t, db, 5, 120)
			p := StrategyPolicy{Strategy: strategy, K: 3, MinTables: 2, Seed: 1}
			res, ran, err := db.MinorCompact(p)
			if err != nil || !ran {
				t.Fatalf("MinorCompact: ran=%v err=%v", ran, err)
			}
			if res.Policy != strategy || res.Merged < 2 {
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
			for k, v := range want {
				got, err := db.GetContext(context.Background(), []byte(k))
				if err != nil || string(got) != v {
					t.Fatalf("Get(%s) = %q, %v; want %q", k, got, err, v)
				}
			}
		})
	}
}

// TestStrategyPolicyMatchesPickLive: the policy's pick on live tables is
// exactly compaction.PickLive on the same statistics — the glue between
// the engine's TableInfo view and the registry picker adds nothing.
func TestStrategyPolicyMatchesPickLive(t *testing.T) {
	db := openTestDB(t, Options{})
	fillTables(t, db, 6, 200)
	infos := db.TableInfos()
	live := make([]compaction.LiveTable, len(infos))
	for i, info := range infos {
		live[i] = compaction.LiveTable{
			SizeBytes: info.SizeBytes, Entries: int(info.Entries),
			Smallest: info.Smallest, Largest: info.Largest, Sketch: info.Sketch,
		}
	}
	for _, strategy := range compaction.LiveStrategies() {
		p := StrategyPolicy{Strategy: strategy, K: 3, MinTables: 2, Seed: 42}
		got := p.Pick(infos)
		want, err := compaction.PickLive(live, strategy, 3, 42)
		if err != nil {
			t.Fatalf("%s: %v", strategy, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: policy picked %v, PickLive picked %v", strategy, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: policy picked %v, PickLive picked %v", strategy, got, want)
			}
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
