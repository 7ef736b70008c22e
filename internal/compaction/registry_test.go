package compaction_test

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/compaction"
	"repro/internal/kverr"
	"repro/internal/lsm"
)

// TestStrategyTableResolvesEveryList: every name each list of the strategy
// table gives resolves, through the resolver that list feeds, to a chooser
// whose Name is that name. The exact-set strategies are refused by the
// engine's resolver and by Plan, the baselines by the model's, and
// lsm.PolicyByName accepts exactly the engine's names, "" and "none".
func TestStrategyTableResolvesEveryList(t *testing.T) {
	type resolver func(string, int64) (compaction.Chooser, error)
	live := func(name string, seed int64) (compaction.Chooser, error) {
		return compaction.NewLiveChooser(name, 4, seed)
	}
	for _, list := range []struct {
		name    string
		names   []string
		resolve resolver
	}{
		{"StrategyNames by NewChooserByName", compaction.StrategyNames(), compaction.NewChooserByName},
		{"LiveStrategies by NewLiveChooser", compaction.LiveStrategies(), live},
		{"Baselines by NewLiveChooser", compaction.Baselines(), live},
		{"EngineStrategies by NewLiveChooser", compaction.EngineStrategies(), live},
	} {
		if len(list.names) == 0 {
			t.Errorf("%s: empty list", list.name)
		}
		for _, name := range list.names {
			ch, err := list.resolve(name, 1)
			if err != nil {
				t.Errorf("%s: %q: %v", list.name, name, err)
			} else if ch.Name() != name {
				t.Errorf("%s: %q resolves to a chooser named %q", list.name, name, ch.Name())
			}
		}
	}
	if got, want := compaction.EngineStrategies(), append(compaction.Baselines(), compaction.LiveStrategies()...); !slices.Equal(got, want) {
		t.Errorf("EngineStrategies = %q, want the baselines then the live strategies %q", got, want)
	}

	tables := []compaction.LiveTable{{Entries: 1}, {Entries: 2}}
	for _, name := range []string{"SO(exact)", "LM"} {
		if _, err := compaction.NewLiveChooser(name, 4, 1); !errors.Is(err, kverr.ErrConfig) {
			t.Errorf("NewLiveChooser(%q) = %v, want ErrConfig", name, err)
		}
		ch, err := compaction.NewChooserByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := compaction.Plan(tables, 2, ch); err == nil {
			t.Errorf("Plan planned with %s", name)
		}
	}
	for _, name := range compaction.Baselines() {
		if ch, err := compaction.NewChooserByName(name, 1); err == nil {
			t.Errorf("NewChooserByName(%q) = %v, want an error", name, ch.Name())
		}
	}

	accepted := append(compaction.EngineStrategies(), "", "none")
	candidates := append(append(compaction.StrategyNames(), compaction.Baselines()...), "", "none", "bogus", "level")
	for _, name := range candidates {
		_, err := lsm.PolicyByName(name, 4, 1)
		if want := slices.Contains(accepted, name); (err == nil) != want {
			t.Errorf("PolicyByName(%q) = %v, want accepted %t", name, err, want)
		}
	}
}
