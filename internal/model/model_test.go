package model

import (
	"slices"
	"testing"
)

// fake is an engine's state: a map, scanned in key order.
type fake map[string]string

func (f fake) Get(key []byte) ([]byte, bool, error) {
	v, ok := f[string(key)]
	return []byte(v), ok, nil
}

func (f fake) Scan(start, end []byte, fn func(key, value []byte) error) error {
	var keys []string
	for k := range f {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if (start == nil || k >= string(start)) && (end == nil || k < string(end)) {
			if err := fn([]byte(k), []byte(f[k])); err != nil {
				return err
			}
		}
	}
	return nil
}

// recorder is a testing.TB whose Fatalf ends the check it was handed.
type recorder struct {
	testing.TB
	msg string
}

func (r *recorder) Helper() {}

func (r *recorder) Fatalf(format string, args ...any) {
	r.msg = format
	panic(r)
}

// fails reports whether check calls Fatalf on the TB it is handed.
func fails(check func(tb testing.TB)) (failed bool) {
	r := &recorder{}
	defer func() {
		if p := recover(); p != nil && p != r {
			panic(p)
		}
		failed = r.msg != ""
	}()
	check(r)
	return false
}

func TestCheckCatchesWrongStates(t *testing.T) {
	m := New()
	m.Put("a", "1")
	m.Put("b", "2")
	m.Delete("b")
	m.Put("c", "3")
	if fails(func(tb testing.TB) { Check(tb, fake{"a": "1", "c": "3"}, m) }) {
		t.Fatal("Check failed the model's own state")
	}
	for name, state := range map[string]fake{
		"lost acked put":      {"a": "1"},
		"resurrected delete":  {"a": "1", "b": "2", "c": "3"},
		"value never written": {"a": "1", "c": "4"},
		"key never written":   {"a": "1", "c": "3", "d": "1"},
	} {
		if !fails(func(tb testing.TB) { Check(tb, state, m) }) {
			t.Errorf("%s: Check passed %v", name, state)
		}
	}
}

func TestCheckAllowsFailedWrites(t *testing.T) {
	m := New()
	m.Put("a", "1")
	m.Put("c", "3")
	m.Fail(Op{Key: "a", Value: "2"}, Op{Key: "b", Value: "2"}, Op{Key: "c", Delete: true})
	for _, state := range []fake{
		{"a": "1", "c": "3"},           // no failed write surfaced
		{"a": "2", "b": "2"},           // every one did
		{"a": "1", "b": "2", "c": "3"}, // some did
	} {
		if fails(func(tb testing.TB) { Check(tb, state, m) }) {
			t.Errorf("Check failed %v", state)
		}
	}
	for _, state := range []fake{{"c": "3"}, {"a": "3", "c": "3"}} {
		if !fails(func(tb testing.TB) { Check(tb, state, m) }) {
			t.Errorf("Check passed %v", state)
		}
	}
}

func TestPrefix(t *testing.T) {
	m := New()
	m.Apply(Op{Key: "a", Value: "1"}, Op{Key: "b", Value: "1"})
	m.Apply(Op{Key: "a", Value: "2"}, Op{Key: "c", Value: "2"})
	m.Delete("b")
	for want, state := range []fake{{}, {"a": "1", "b": "1"}, {"a": "2", "b": "1", "c": "2"}, {"a": "2", "c": "2"}} {
		if got := m.Prefix(t, state); got != want {
			t.Errorf("Prefix(%v) = %d, want %d", state, got, want)
		}
	}
	for name, state := range map[string]fake{
		"half-applied batch": {"a": "2", "b": "1"},
		"batches 1 and 3":    {"a": "1"},
	} {
		if !fails(func(tb testing.TB) { m.Prefix(tb, state) }) {
			t.Errorf("%s: Prefix passed %v", name, state)
		}
	}
}
