package compaction_test

import (
	"fmt"
	"log"

	"repro/internal/compaction"
	"repro/internal/keyset"
)

// ExampleRun schedules the paper's working example with SMALLESTOUTPUT and
// prints the costs the paper reports for Figure 6.
func ExampleRun() {
	inst := compaction.WorkingExample()
	sched, err := compaction.Run(inst, 2, compaction.NewSmallestOutput(compaction.ExactEstimator{}))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("cost:", sched.CostSimple())
	fmt.Println("costactual:", sched.CostActual())
	fmt.Println("merges:", len(sched.Steps))
	// Output:
	// cost: 40
	// costactual: 54
	// merges: 4
}

// ExampleOptimalBinary verifies that SMALLESTOUTPUT found the true optimum
// on the working example using the exact subset DP.
func ExampleOptimalBinary() {
	opt, err := compaction.OptimalBinary(compaction.WorkingExample())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("optimal cost:", opt.CostSimple())
	// Output:
	// optimal cost: 40
}

// ExampleRun_kWay merges with fan-in 4: five tables collapse in two steps
// instead of four.
func ExampleRun_kWay() {
	inst := compaction.WorkingExample()
	sched, err := compaction.Run(inst, 4, compaction.NewSmallestInput())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("merges:", len(sched.Steps))
	fmt.Println("root size:", sched.Root.Set.Len())
	// Output:
	// merges: 2
	// root size: 9
}

// ExampleFreqMerge shows the f-approximation on disjoint sets, where f = 1
// makes it exactly optimal (Huffman).
func ExampleFreqMerge() {
	inst := compaction.NewInstance(
		keyset.Range(0, 5),
		keyset.Range(5, 14),
		keyset.Range(14, 16),
		keyset.Range(16, 23),
	)
	sched, err := compaction.FreqMerge(inst, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("f:", inst.MaxFrequency())
	fmt.Println("cost:", sched.CostSimple())
	// Output:
	// f: 1
	// cost: 67
}

// ExampleSchedule_CostSubmodular prices one schedule under the paper's
// SUBMODULARMERGING extension: a fixed cost per created sstable on top of
// cardinality.
func ExampleSchedule_CostSubmodular() {
	inst := compaction.WorkingExample()
	sched, err := compaction.Run(inst, 2, compaction.NewSmallestInput())
	if err != nil {
		log.Fatal(err)
	}
	cardinality := func(s keyset.Set) float64 { return float64(s.Len()) }
	initPlusCardinality := func(s keyset.Set) float64 { return 100 + float64(s.Len()) }
	plain := sched.CostSubmodular(cardinality)
	withInit := sched.CostSubmodular(initPlusCardinality)
	fmt.Println("cardinality:", plain)
	fmt.Println("with init cost:", withInit)
	// Fewer, wider merges pay the init cost fewer times.
	wide, err := compaction.Run(inst, 3, compaction.NewSmallestInput())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("with init cost, k=3:", wide.CostSubmodular(initPlusCardinality))
	// Output:
	// cardinality: 30
	// with init cost: 430
	// with init cost, k=3: 216
}
