package lsm

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/compaction"
	"repro/internal/model"
)

// checkLevelInvariant fails the test if any two tables at the same level
// >= 1 overlap by key range — the structural invariant of the leveled
// layout.
func checkLevelInvariant(t *testing.T, infos []TableInfo) {
	t.Helper()
	byLevel := make(map[int][]TableInfo)
	for _, info := range infos {
		if info.Level >= 1 {
			byLevel[info.Level] = append(byLevel[info.Level], info)
		}
	}
	for level, tables := range byLevel {
		for i := 0; i < len(tables); i++ {
			for j := i + 1; j < len(tables); j++ {
				a, b := tables[i], tables[j]
				if a.Smallest == nil || b.Smallest == nil {
					continue
				}
				if bytes.Compare(a.Smallest, b.Largest) <= 0 && bytes.Compare(b.Smallest, a.Largest) <= 0 {
					t.Fatalf("level %d overlap: %s [%q,%q] vs %s [%q,%q]",
						level, a.Name, a.Smallest, a.Largest, b.Name, b.Smallest, b.Largest)
				}
			}
		}
	}
}

// TestLeveledNeverOverlapsWithinLevel is the leveled-layout invariant
// test: under a random update-heavy workload (overlapping flushes) with
// tiny level targets, auto-compaction with LeveledPolicy must never
// leave two overlapping tables at the same level >= 1 — checked after
// every flush-and-compact round and again after reopening.
func TestLeveledNeverOverlapsWithinLevel(t *testing.T) {
	dir := t.TempDir()
	opts := Options{
		MemtableBytes: 4 << 10,
		AutoCompact:   tuned(0, compaction.Leveled{L0Trigger: 2, BaseTargetBytes: 8 << 10}),
	}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	want := model.New()
	for round := 0; round < 30; round++ {
		for i := 0; i < 120; i++ {
			// A skewed draw keeps key ranges overlapping across flushes.
			k := fmt.Sprintf("key-%05d", rng.Intn(2000))
			v := fmt.Sprintf("val-%d-%d", round, i)
			if err := db.PutContext(context.Background(), []byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			want.Put(k, v)
		}
		checkLevelInvariant(t, db.TableInfos())
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for {
		_, ran, err := db.minorCompact(opts.AutoCompact)
		if err != nil {
			t.Fatal(err)
		}
		checkLevelInvariant(t, db.TableInfos())
		if !ran {
			break
		}
	}
	infos := db.TableInfos()
	deep := 0
	for _, info := range infos {
		if info.Level >= 1 {
			deep++
		}
	}
	if deep == 0 {
		t.Fatalf("workload never produced a level >= 1 table: %+v", infos)
	}
	st := db.Stats()
	if st.CompactionPicks["leveled"] == 0 {
		t.Errorf("no leveled picks recorded: %v", st.CompactionPicks)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Levels are manifest state: they must survive a reopen, and so must
	// the data.
	db, err = Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	reopened := db.TableInfos()
	checkLevelInvariant(t, reopened)
	deepAfter := 0
	for _, info := range reopened {
		if info.Level >= 1 {
			deepAfter++
		}
	}
	if deepAfter != deep {
		t.Errorf("levels lost across reopen: %d deep tables before, %d after", deep, deepAfter)
	}
	model.Check(t, dbReader{db}, want)
}

// level builds a table at level lv spanning [lo, hi].
func level(lv int, lo, hi string, size uint64) TableInfo {
	return TableInfo{Name: lo + hi, LiveTable: compaction.LiveTable{Level: lv, Smallest: []byte(lo), Largest: []byte(hi), SizeBytes: size, Entries: 1}}
}

// TestLeveledOutputLevels pins the level-assignment rule: a single-level
// pick moves down one level, a two-level pick lands at the deeper level.
func TestLeveledOutputLevels(t *testing.T) {
	p := tuned(0, compaction.Leveled{L0Trigger: 2, BaseTargetBytes: 10})
	for _, tc := range []struct {
		what   string
		tables []TableInfo
		want   int
	}{
		{"L0+L0", []TableInfo{level(0, "a", "b", 1), level(0, "c", "d", 1)}, 1},
		{"L0+L1", []TableInfo{level(0, "a", "b", 1), level(0, "c", "d", 1), level(1, "b", "c", 1)}, 1},
		{"L1+L1", []TableInfo{level(1, "a", "b", 8), level(1, "c", "d", 8)}, 2},
	} {
		live := make([]compaction.LiveTable, len(tc.tables))
		for i, info := range tc.tables {
			live[i] = info.LiveTable
		}
		sc, err := p.pick(live)
		if err != nil || sc == nil || len(sc.Leaves) != len(tc.tables) {
			t.Fatalf("%s: pick %v, %v; want every table", tc.what, sc, err)
		}
		if got := sc.Root.Live.Level; got != tc.want {
			t.Errorf("%s output level = %d, want %d", tc.what, got, tc.want)
		}
	}
}

// TestLeveledPickClosesOverlap: an L0→L1 merge must absorb every L1 table
// the combined L0 span covers, including tables pulled in transitively as
// the span grows.
func TestLeveledPickClosesOverlap(t *testing.T) {
	tables := []TableInfo{
		level(0, "a", "c", 10),
		level(0, "f", "h", 10),
		// Covered by the combined span [a,h] though it overlaps neither L0
		// table individually.
		level(1, "d", "e", 10),
		// Outside the span: stays.
		level(1, "x", "z", 10),
	}
	got := picked(t, mustPolicy(t, "leveled", 2), tables)
	slices.Sort(got)
	if !slices.Equal(got, []int{0, 1, 2}) {
		t.Fatalf("picked %v, want both L0 tables and the covered L1 table", got)
	}
}

// TestLeveledMajorRootKeepsDeepestLevel: a major compaction of a leveled
// layout leaves its root at the deepest level it merged, not at level 0,
// where the next L0→L1 push-down would rewrite the whole store — whether
// a paper strategy (BT(I)) or a baseline (leveled) plans it. A leveled
// plan's last merge, whose inputs share that level, moves it one deeper.
func TestLeveledMajorRootKeepsDeepestLevel(t *testing.T) {
	for _, strategy := range []string{"BT(I)", "leveled"} {
		db := openTestDB(t, Options{MemtableBytes: 16 << 10, AutoCompact: tuned(0, compaction.Leveled{L0Trigger: 2, BaseTargetBytes: 64 << 10})})
		for i := 0; i < 6000; i++ {
			if err := db.PutContext(context.Background(), []byte(fmt.Sprintf("key-%05d", i)), []byte("value-payload-of-some-length")); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		deepest := 0
		for _, info := range db.TableInfos() {
			deepest = max(deepest, info.Level)
		}
		if deepest < 2 {
			t.Fatalf("workload left no table below level 1: %+v", db.TableInfos())
		}
		if _, err := db.MajorCompact(strategy, 4, 1); err != nil {
			t.Fatal(err)
		}
		want := deepest
		if strategy == "leveled" {
			want++
		}
		if infos := db.TableInfos(); len(infos) != 1 || infos[0].Level != want {
			t.Fatalf("%s: after the major compaction: %+v; want one table at level %d", strategy, infos, want)
		}
	}
}
