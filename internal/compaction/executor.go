package compaction

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/keyset"
)

// ExecuteParallel re-executes a schedule's merges on a bounded worker pool,
// running every merge whose inputs are ready concurrently. This realizes
// the paper's threaded BALANCETREE implementation (Section 5.1): "Since all
// sstables at a single level can be simultaneously merged, we use threads
// to parallelly initiate multiple merge operations." For chain-shaped trees
// (the typical SI/SO output) there is no available parallelism and the
// execution degrades gracefully to sequential.
//
// The unions are recomputed from the leaf sets (results are checked against
// the schedule), so wall-clock time of ExecuteParallel measures pure merge
// work without planning overhead. workers <= 0 selects GOMAXPROCS.
func ExecuteParallel(sc *Schedule, workers int) error {
	return ExecuteParallelFunc(sc, workers, func(i int) error {
		st := sc.Steps[i]
		sets := make([]keyset.Set, len(st.Inputs))
		for j, in := range st.Inputs {
			sets[j] = in.Set
		}
		got := keyset.UnionAll(sets...)
		if !got.Equal(st.Output.Set) {
			return fmt.Errorf("compaction: execute: step %d produced a different union", i)
		}
		return nil
	})
}

// ExecuteParallelFunc drives sc's merge DAG on a bounded worker pool,
// invoking run(i) for step i once every input of that step has been
// produced. It is the executor behind both ExecuteParallel (which re-merges
// the abstract key sets) and the LSM engine's major compaction (which
// merges the real sstable files). Steps whose inputs are all leaves
// start immediately; a step becomes ready the moment its last dependency's
// run call returns, so available parallelism is exploited without barriers
// between tree levels.
//
// The completion of run(i) happens-before the start of run(j) for every
// step j that consumes step i's output, so runners may hand results from
// producers to consumers through plain shared memory indexed by node ID.
// The first error stops the dispatch of new steps; in-flight steps finish
// before ExecuteParallelFunc returns that error. workers <= 0 selects
// GOMAXPROCS.
func ExecuteParallelFunc(sc *Schedule, workers int, run func(step int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(sc.Steps) == 0 {
		return nil
	}

	// Dependency counting: a step is ready when all its non-leaf inputs
	// have been produced.
	producers := make(map[*Node]int, len(sc.Steps)) // output node -> step index
	for i, st := range sc.Steps {
		producers[st.Output] = i
	}
	waiting := make([]int, len(sc.Steps))
	dependents := make([][]int, len(sc.Steps))
	ready := make([]int, 0, len(sc.Steps))
	for i, st := range sc.Steps {
		for _, in := range st.Inputs {
			if in.IsLeaf() {
				continue
			}
			p, ok := producers[in]
			if !ok {
				return fmt.Errorf("compaction: execute: step %d input %d has no producer", i, in.ID)
			}
			waiting[i]++
			dependents[p] = append(dependents[p], i)
		}
		if waiting[i] == 0 {
			ready = append(ready, i)
		}
	}

	var (
		mu        sync.Mutex
		cond      = sync.Cond{L: &mu}
		remaining = len(sc.Steps)
		firstErr  error
	)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				for len(ready) == 0 && remaining > 0 && firstErr == nil {
					cond.Wait()
				}
				if remaining == 0 || firstErr != nil {
					mu.Unlock()
					return
				}
				i := ready[len(ready)-1]
				ready = ready[:len(ready)-1]
				mu.Unlock()

				err := run(i)

				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = err
				}
				remaining--
				for _, d := range dependents[i] {
					waiting[d]--
					if waiting[d] == 0 {
						ready = append(ready, d)
					}
				}
				cond.Broadcast()
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// MaxParallelism returns the largest number of merges in the schedule that
// could run concurrently — the width of the dependency DAG by level. BT
// schedules have width ≈ n/k at the first level; SI/SO chains have width
// close to 1 after the first step.
func MaxParallelism(sc *Schedule) int {
	depth := make(map[*Node]int)
	widths := make(map[int]int)
	for _, st := range sc.Steps {
		d := 0
		for _, in := range st.Inputs {
			if !in.IsLeaf() && depth[in]+1 > d {
				d = depth[in] + 1
			}
		}
		depth[st.Output] = d
		widths[d]++
	}
	maxW := 0
	for _, w := range widths {
		if w > maxW {
			maxW = w
		}
	}
	return maxW
}
