package compaction

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/kverr"
)

// DefaultHLLPrecision is the sketch precision used by the SO and BT(O)
// strategies when constructed by name (2^12 registers, ≈1.6% error).
const DefaultHLLPrecision = 12

// plansOver says what a chooser can plan over: the exact key sets of the
// model (Run), the statistics a table persists (Plan, Pick, the engine), or
// both.
type plansOver uint8

const (
	keySets plansOver = 1 << iota
	tableStats
)

// strategies is the one table of strategy names, keyed by the name each
// chooser's Name reports. Every resolver and name list reads it: the model
// takes the entries that plan over key sets (the paper's strategies), the
// engine those that plan over table statistics (the paper's strategies but
// SO(exact) and LM, and the baselines). build constructs a fresh chooser:
// k is leveled's level-0 trigger (the others take k at Init), seed RANDOM's.
var strategies = map[string]struct {
	over  plansOver
	build func(k int, seed int64) Chooser
}{
	"SI":    {keySets | tableStats, func(int, int64) Chooser { return NewSmallestInput() }},
	"SO":    {keySets | tableStats, func(int, int64) Chooser { return NewSmallestOutput(NewHLLEstimator(DefaultHLLPrecision)) }},
	"BT":    {keySets | tableStats, func(int, int64) Chooser { return NewBalanceTree(OrderArbitrary, nil) }},
	"BT(I)": {keySets | tableStats, func(int, int64) Chooser { return NewBalanceTree(OrderSmallestInput, nil) }},
	"BT(O)": {keySets | tableStats, func(int, int64) Chooser {
		return NewBalanceTree(OrderSmallestOutput, NewHLLEstimator(DefaultHLLPrecision))
	}},
	"CHAIN":       {keySets | tableStats, func(int, int64) Chooser { return NewChain() }},
	"RANDOM":      {keySets | tableStats, func(_ int, seed int64) Chooser { return NewRandom(seed) }},
	"SO(exact)":   {keySets, func(int, int64) Chooser { return NewSmallestOutput(ExactEstimator{}) }},
	"LM":          {keySets, func(int, int64) Chooser { return NewLargestMatch() }},
	"leveled":     {tableStats, func(k int, _ int64) Chooser { return &Leveled{L0Trigger: k} }},
	"size-tiered": {tableStats, func(int, int64) Chooser { return &SizeTiered{} }},
	"threshold":   {tableStats, func(int, int64) Chooser { return &Threshold{} }},
}

// names returns the table's names whose entry, masked by mask, plans over
// exactly want, sorted.
func names(mask, want plansOver) []string {
	var out []string
	for name, s := range strategies {
		if s.over&mask == want {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// NewChooserByName constructs a fresh chooser for one run of the model:
// any name StrategyNames lists; seed is used by RANDOM only. Any other
// name, a baseline's included, is an error listing the accepted set.
func NewChooserByName(name string, seed int64) (Chooser, error) {
	if strategies[name].over&keySets == 0 {
		return nil, fmt.Errorf("compaction: unknown strategy %q (have %s)", name, strings.Join(StrategyNames(), ", "))
	}
	return strategies[name].build(0, seed), nil
}

// NewLiveChooser constructs a fresh chooser for a name EngineStrategies
// lists, under fan-in k, leveled's level-0 trigger; seed feeds RANDOM. It is
// the one resolver of the engine's strategy names, minor picks and major
// plans alike. Any other name, the exact-set strategies included, is an
// error wrapping kverr.ErrConfig that lists the accepted set.
func NewLiveChooser(name string, k int, seed int64) (Chooser, error) {
	if strategies[name].over&tableStats == 0 {
		return nil, fmt.Errorf("compaction: strategy %q cannot plan from table statistics (have %s): %w",
			name, strings.Join(EngineStrategies(), ", "), kverr.ErrConfig)
	}
	return strategies[name].build(k, seed), nil
}

// StrategyNames returns the paper's strategies, the names NewChooserByName
// accepts, sorted.
func StrategyNames() []string { return names(keySets, keySets) }

// LiveStrategies returns the paper's strategies the engine accepts, sorted:
// StrategyNames minus the two exact-set strategies.
func LiveStrategies() []string { return names(keySets|tableStats, keySets|tableStats) }

// Baselines returns the names of the engine's baseline choosers, sorted.
func Baselines() []string { return names(keySets|tableStats, tableStats) }

// EngineStrategies returns the names the engine accepts, NewLiveChooser's,
// in the engine matrix's order: the baselines, then LiveStrategies.
func EngineStrategies() []string { return append(Baselines(), LiveStrategies()...) }

// EvaluatedStrategies returns the five strategies compared in the paper's
// Figure 7, in the paper's presentation order.
func EvaluatedStrategies() []string {
	return []string{"SI", "SO", "BT(I)", "BT(O)", "RANDOM"}
}
