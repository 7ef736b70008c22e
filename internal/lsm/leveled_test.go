package lsm

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"
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
		AutoCompact:   LeveledPolicy{L0Trigger: 2, BaseTargetBytes: 8 << 10},
	}
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	want := make(map[string]string)
	for round := 0; round < 30; round++ {
		for i := 0; i < 120; i++ {
			// A skewed draw keeps key ranges overlapping across flushes.
			k := fmt.Sprintf("key-%05d", rng.Intn(2000))
			v := fmt.Sprintf("val-%d-%d", round, i)
			if err := db.PutContext(context.Background(), []byte(k), []byte(v)); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		}
		checkLevelInvariant(t, db.TableInfos())
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for {
		_, ran, err := db.MinorCompact(opts.AutoCompact)
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
	for k, v := range want {
		got, err := db.GetContext(context.Background(), []byte(k))
		if err != nil || string(got) != v {
			t.Fatalf("Get(%s) = %q, %v; want %q", k, got, err, v)
		}
	}
}

// TestLeveledOutputLevels pins the level-assignment rule: a single-level
// pick moves down one level, a two-level pick lands at the deeper level.
func TestLeveledOutputLevels(t *testing.T) {
	p := LeveledPolicy{}
	tables := []TableInfo{
		{Level: 0}, {Level: 0}, {Level: 1}, {Level: 1},
	}
	if got := p.OutputLevel(tables, []int{0, 1}); got != 1 {
		t.Errorf("L0+L0 output level = %d, want 1", got)
	}
	if got := p.OutputLevel(tables, []int{0, 1, 2}); got != 1 {
		t.Errorf("L0+L1 output level = %d, want 1", got)
	}
	if got := p.OutputLevel(tables, []int{2, 3}); got != 2 {
		t.Errorf("L1+L1 output level = %d, want 2", got)
	}
}

// TestLeveledPickClosesOverlap: an L0→L1 merge must absorb every L1 table
// the combined L0 span covers, including tables pulled in transitively as
// the span grows.
func TestLeveledPickClosesOverlap(t *testing.T) {
	p := LeveledPolicy{L0Trigger: 2}
	tables := []TableInfo{
		{Name: "a", Level: 0, Smallest: []byte("a"), Largest: []byte("c"), SizeBytes: 10},
		{Name: "b", Level: 0, Smallest: []byte("f"), Largest: []byte("h"), SizeBytes: 10},
		// Covered by the combined span [a,h] though it overlaps neither
		// L0 table individually.
		{Name: "mid", Level: 1, Smallest: []byte("d"), Largest: []byte("e"), SizeBytes: 10},
		// Outside the span: stays.
		{Name: "out", Level: 1, Smallest: []byte("x"), Largest: []byte("z"), SizeBytes: 10},
	}
	picked := p.Pick(tables)
	got := make(map[string]bool)
	for _, i := range picked {
		got[tables[i].Name] = true
	}
	if !got["a"] || !got["b"] || !got["mid"] || got["out"] {
		t.Fatalf("picked %v, want a+b+mid without out", picked)
	}
}
