package compaction

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/keyset"
)

// Property-based invariant tests for the schedule executor and the cost
// accounting, over random instances and every registered strategy:
//
//  1. ExecuteParallelFunc with many workers produces byte-identical
//     per-step outputs to a sequential (one-worker) execution.
//  2. Every strategy's reported CostActual and CostSimple match the costs
//     recomputed independently from the schedule it returned.

// executeCollect runs sc's merges through ExecuteParallelFunc with the
// given worker count, recomputing each step's union from its inputs, and
// returns the encoded keys of every step output.
func executeCollect(t *testing.T, sc *Schedule, workers int) [][]uint64 {
	t.Helper()
	outs := make([][]uint64, len(sc.Steps))
	var mu sync.Mutex
	err := ExecuteParallelFunc(sc, workers, func(i int) error {
		st := sc.Steps[i]
		sets := make([]keyset.Set, len(st.Inputs))
		for j, in := range st.Inputs {
			sets[j] = in.Set
		}
		got := keyset.UnionAll(sets...)
		mu.Lock()
		outs[i] = append([]uint64(nil), got.Keys()...)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatalf("ExecuteParallelFunc(workers=%d): %v", workers, err)
	}
	return outs
}

func TestPropExecuteParallelMatchesSequential(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		inst := randomInstance(r, 2+r.Intn(14), 120, 25)
		k := 2 + r.Intn(4)
		for _, name := range StrategyNames() {
			ch, err := NewChooserByName(name, int64(trial))
			if err != nil {
				t.Fatal(err)
			}
			sc, err := Run(inst, k, ch)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			sequential := executeCollect(t, sc, 1)
			for _, workers := range []int{2, 8} {
				parallel := executeCollect(t, sc, workers)
				if !reflect.DeepEqual(sequential, parallel) {
					t.Fatalf("trial %d %s k=%d: %d-worker execution diverged from sequential", trial, name, k, workers)
				}
			}
			// Each collected output must also match the schedule's own label.
			for i, keys := range sequential {
				got := keyset.New(keys...)
				if !slices.IsSorted(keys) || got.Len() != len(keys) || !got.Equal(sc.Steps[i].Output.Set) {
					t.Fatalf("trial %d %s k=%d: step %d output disagrees with schedule label", trial, name, k, i)
				}
			}
		}
	}
}

func TestPropReportedCostsMatchSchedule(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		inst := randomInstance(r, 2+r.Intn(14), 100, 20)
		k := 2 + r.Intn(4)
		for _, name := range StrategyNames() {
			ch, err := NewChooserByName(name, int64(trial))
			if err != nil {
				t.Fatal(err)
			}
			sc, err := Run(inst, k, ch)
			if err != nil {
				t.Fatalf("trial %d %s: %v", trial, name, err)
			}
			if err := sc.Validate(); err != nil {
				t.Fatalf("trial %d %s k=%d: %v", trial, name, k, err)
			}
			// costactual (Section 2): every merge reads its inputs and
			// writes its output.
			actual := 0
			for _, st := range sc.Steps {
				for _, in := range st.Inputs {
					actual += in.Set.Len()
				}
				actual += st.Output.Set.Len()
			}
			if got := sc.CostActual(); got != actual {
				t.Fatalf("trial %d %s k=%d: CostActual() = %d, recomputed %d", trial, name, k, got, actual)
			}
			// Simplified cost (equation 2.1): Σ |A_ν| over all tree nodes.
			simple := 0
			for _, leaf := range sc.Leaves {
				simple += leaf.Set.Len()
			}
			for _, st := range sc.Steps {
				simple += st.Output.Set.Len()
			}
			if got := sc.CostSimple(); got != simple {
				t.Fatalf("trial %d %s k=%d: CostSimple() = %d, recomputed %d", trial, name, k, got, simple)
			}
		}
	}
}

// TestPropExecutorErrorStopsDispatch checks the executor's failure
// contract: after a step fails, no step that depends on it runs, and the
// first error is returned.
func TestPropExecutorErrorStopsDispatch(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		inst := randomInstance(r, 4+r.Intn(10), 80, 15)
		ch, err := NewChooserByName("BT(I)", 0)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := Run(inst, 2, ch)
		if err != nil {
			t.Fatal(err)
		}
		failAt := r.Intn(len(sc.Steps))
		var mu sync.Mutex
		ran := make(map[int]bool)
		wantErr := fmt.Errorf("injected failure at step %d", failAt)
		err = ExecuteParallelFunc(sc, 4, func(i int) error {
			mu.Lock()
			ran[i] = true
			mu.Unlock()
			if i == failAt {
				return wantErr
			}
			return nil
		})
		if err != wantErr {
			t.Fatalf("trial %d: error = %v, want %v", trial, err, wantErr)
		}
		// Anything downstream of the failed step must not have run.
		downstream := map[int]bool{}
		producers := map[*Node]int{}
		for i, st := range sc.Steps {
			producers[st.Output] = i
		}
		var mark func(i int)
		mark = func(i int) {
			for j, st := range sc.Steps {
				for _, in := range st.Inputs {
					if p, ok := producers[in]; ok && p == i && !downstream[j] {
						downstream[j] = true
						mark(j)
					}
				}
			}
		}
		mark(failAt)
		for j := range downstream {
			if ran[j] {
				t.Fatalf("trial %d: step %d ran although its ancestor %d failed", trial, j, failAt)
			}
		}
	}
}
