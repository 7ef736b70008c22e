// Package model is the reference state the engine's correctness tests
// compare against: what every Get and scan may return after a sequence of
// acknowledged and failed writes, and whether a recovered state is a
// prefix of the acknowledged batches.
//
// It imports no engine package. Each suite adapts its engine to Reader in a
// few lines of its own, and the adapter maps its engine's not-found error
// (lsm.ErrNotFound, kv.ErrNotFound, kvnet.ErrNotFound) to found == false
// with a nil error; any other error fails the check.
package model

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// Test support: Op is one write: a put of Value at Key, or a delete of Key.
type Op struct {
	Key, Value string
	Delete     bool
}

// Test support: Reader is the read side of an engine under test.
type Reader interface {
	// Get returns key's value, or found == false with a nil error.
	Get(key []byte) (value []byte, found bool, err error)
	// Scan calls fn on each entry in [start, end) in key order; a nil
	// bound is open.
	Scan(start, end []byte, fn func(key, value []byte) error) error
}

// Test support: Model holds what reads may return. It is safe for concurrent
// use; writers that share a key must record their writes in commit order.
type Model struct {
	mu      sync.Mutex
	keys    map[string]*entry
	batches [][]Op
}

// entry is what one key may read as.
type entry struct {
	value     string   // the last acknowledged put's value
	live      bool     // the last acknowledged write was a put
	maybe     []string // values of failed puts since
	maybeGone bool     // a failed delete since, or nothing acknowledged
}

// Test support: New returns an empty model.
func New() *Model { return &Model{keys: map[string]*entry{}} }

// Put records an acknowledged put.
func (m *Model) Put(key, value string) { m.Apply(Op{Key: key, Value: value}) }

// Delete records an acknowledged delete.
func (m *Model) Delete(key string) { m.Apply(Op{Key: key, Delete: true}) }

// Apply records an acknowledged batch: its ops in order, all or none, after
// every batch recorded before it.
func (m *Model) Apply(ops ...Op) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batches = append(m.batches, ops)
	for _, op := range ops {
		m.keys[op.Key] = &entry{value: op.Value, live: !op.Delete}
	}
}

// Fail records writes that returned an error: each may surface, or not.
func (m *Model) Fail(ops ...Op) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, op := range ops {
		e := m.keys[op.Key]
		if e == nil {
			e = &entry{maybeGone: true}
			m.keys[op.Key] = e
		}
		if op.Delete {
			e.maybeGone = true
		} else {
			e.maybe = append(e.maybe, op.Value)
		}
	}
}

// Keys returns every key the model has seen, sorted.
func (m *Model) Keys() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]string, 0, len(m.keys))
	for k := range m.keys {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// Verify reports whether a read of key that found value, or found nothing,
// is one the model allows.
func (m *Model) Verify(key, value string, found bool) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.keys[key]
	switch {
	case e == nil && found:
		return fmt.Errorf("%s = %.40q, never written", key, value)
	case e == nil || !found && (!e.live || e.maybeGone):
		return nil
	case !found:
		return fmt.Errorf("%s: acknowledged value %.40q lost", key, e.value)
	case e.live && value == e.value || slices.Contains(e.maybe, value):
		return nil
	}
	return fmt.Errorf("%s = %.40q; want %.40q (live %v, %d failed puts)", key, value, e.value, e.live, len(e.maybe))
}

// Test support: Check fails t unless r agrees with m: a Get of every key m
// has seen and of one it has not, a full scan, and a few seeded sub-range
// scans, each of which must return exactly the full scan's entries within
// its bounds.
func Check(t testing.TB, r Reader, m *Model) {
	t.Helper()
	keys := m.Keys()
	for _, k := range keys {
		v, found, err := r.Get([]byte(k))
		if err == nil {
			err = m.Verify(k, string(v), found)
		}
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
	}
	absent := "absent"
	for _, ok := slices.BinarySearch(keys, absent); ok; _, ok = slices.BinarySearch(keys, absent) {
		absent += "~"
	}
	if v, found, err := r.Get([]byte(absent)); found || err != nil {
		t.Fatalf("Get(%s), never written: %.40q, %v, %v", absent, v, found, err)
	}
	all := scan(t, r, nil, nil)
	for _, e := range all {
		if err := m.Verify(e[0], e[1], true); err != nil {
			t.Fatalf("scan: %v", err)
		}
	}
	// Every scanned key is one of keys, and both are sorted.
	j := 0
	for _, k := range keys {
		if j < len(all) && all[j][0] == k {
			j++
		} else if err := m.Verify(k, "", false); err != nil {
			t.Fatalf("scan: %v", err)
		}
	}
	rng := rand.New(rand.NewSource(int64(len(keys))))
	for i := 0; i < 3 && len(keys) > 0; i++ {
		lo, hi := keys[rng.Intn(len(keys))], keys[rng.Intn(len(keys))]
		lo, hi = min(lo, hi), max(lo, hi)
		from := sort.Search(len(all), func(i int) bool { return all[i][0] >= lo })
		to := sort.Search(len(all), func(i int) bool { return all[i][0] >= hi })
		if got, want := scan(t, r, []byte(lo), []byte(hi)), all[from:to]; !slices.Equal(got, want) {
			t.Fatalf("scan [%s, %s) returned %d entries; the full scan holds %d there", lo, hi, len(got), len(want))
		}
	}
}

// Prefix returns how many acknowledged batches, counted from the first, r
// holds, and fails t unless r's state is exactly such a prefix with each
// batch applied whole.
func (m *Model) Prefix(t testing.TB, r Reader) int {
	t.Helper()
	got, cur := map[string]string{}, map[string]string{}
	for _, e := range scan(t, r, nil, nil) {
		got[e[0]] = e[1]
	}
	same := func(k string) bool {
		g, gok := got[k]
		c, cok := cur[k]
		return gok == cok && g == c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	differ, n := len(got), -1 // keys where cur and got disagree
	for i := 0; ; i++ {
		if differ == 0 {
			n = i
		}
		if i == len(m.batches) {
			break
		}
		for _, op := range m.batches[i] {
			if !same(op.Key) {
				differ--
			}
			if op.Delete {
				delete(cur, op.Key)
			} else {
				cur[op.Key] = op.Value
			}
			if !same(op.Key) {
				differ++
			}
		}
	}
	if n < 0 {
		t.Fatalf("%d keys are no prefix of the %d acknowledged batches, each applied whole", len(got), len(m.batches))
	}
	return n
}

// Test support: scan collects r's entries in [start, end), failing t on an
// error or on keys out of order.
func scan(t testing.TB, r Reader, start, end []byte) [][2]string {
	t.Helper()
	var out [][2]string
	if err := r.Scan(start, end, func(k, v []byte) error {
		if n := len(out); n > 0 && out[n-1][0] >= string(k) {
			return fmt.Errorf("%s after %s", k, out[n-1][0])
		}
		out = append(out, [2]string{string(k), string(v)})
		return nil
	}); err != nil {
		t.Fatalf("scan [%q, %q): %v", start, end, err)
	}
	return out
}

// Test support: Mix shapes a Stream.
type Mix struct {
	Prefix string  // every key begins with it
	Keys   int     // the stream writes Prefix+"key-0000" and on, this many
	Delete float64 // the chance that an op deletes
	Batch  float64 // the chance that a write is a batch of three ops
	Pad    int     // values are padded to this many bytes
}

// Test support: Stream returns n writes drawn from seed, each one op or a
// batch of three. Every put writes a value no other op of the stream writes.
func Stream(seed int64, n int, mix Mix) [][]Op {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]Op, n)
	for i := range out {
		size := 1
		if rng.Float64() < mix.Batch {
			size = 3
		}
		for j := 0; j < size; j++ {
			op := Op{Key: fmt.Sprintf("%skey-%04d", mix.Prefix, rng.Intn(mix.Keys))}
			if op.Delete = rng.Float64() < mix.Delete; !op.Delete {
				op.Value = fmt.Sprintf("%sv%06d.%d", mix.Prefix, i, j)
				op.Value += strings.Repeat(".", max(0, mix.Pad-len(op.Value)))
			}
			out[i] = append(out[i], op)
		}
	}
	return out
}
