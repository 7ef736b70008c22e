package memtable

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/iterator"
)

func TestPutGet(t *testing.T) {
	m := New(1)
	m.Put([]byte("a"), []byte("1"), 10)
	got, ok := m.Get([]byte("a"))
	if !ok || string(got.Value) != "1" || got.Seq != 10 || got.Tombstone {
		t.Errorf("Get = %+v, %v", got, ok)
	}
	if _, ok := m.Get([]byte("missing")); ok {
		t.Errorf("missing key found")
	}
}

func TestDeleteShadows(t *testing.T) {
	m := New(1)
	m.Put([]byte("k"), []byte("v"), 1)
	m.Delete([]byte("k"), 2)
	got, ok := m.Get([]byte("k"))
	if !ok || !got.Tombstone || got.Seq != 2 {
		t.Errorf("after delete: %+v, %v", got, ok)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d, want 1 (tombstone replaces value in place)", m.Len())
	}
}

func TestOverwriteInPlace(t *testing.T) {
	m := New(1)
	m.Put([]byte("k"), []byte("old"), 1)
	m.Put([]byte("k"), []byte("new"), 2)
	got, _ := m.Get([]byte("k"))
	if string(got.Value) != "new" || got.Seq != 2 {
		t.Errorf("overwrite = %+v", got)
	}
	if m.Len() != 1 {
		t.Errorf("Len = %d after overwrite", m.Len())
	}
}

func TestIterSortedWithTombstones(t *testing.T) {
	m := New(3)
	m.Put([]byte("c"), []byte("3"), 1)
	m.Delete([]byte("a"), 2)
	m.Put([]byte("b"), []byte("2"), 3)
	got := iterator.Drain(m.Iter())
	if len(got) != 3 {
		t.Fatalf("drained %d entries", len(got))
	}
	wantKeys := []string{"a", "b", "c"}
	for i, e := range got {
		if string(e.Key) != wantKeys[i] {
			t.Errorf("entry %d key = %q, want %q", i, e.Key, wantKeys[i])
		}
	}
	if !got[0].Tombstone {
		t.Errorf("entry a should be a tombstone")
	}
}

func TestCallerOwnsKeyBuffer(t *testing.T) {
	m := New(1)
	k := []byte("mutable")
	m.Put(k, []byte("v"), 1)
	k[0] = 'X' // caller reuses its buffer; memtable must have copied
	if _, ok := m.Get([]byte("mutable")); !ok {
		t.Errorf("memtable aliased the caller's key buffer")
	}
}

func TestQuickMatchesMap(t *testing.T) {
	f := func(ops []struct {
		Key byte
		Del bool
	}) bool {
		m := New(5)
		ref := map[string]iterator.Entry{}
		for i, op := range ops {
			k := []byte{op.Key}
			seq := uint64(i + 1)
			if op.Del {
				m.Delete(k, seq)
				ref[string(k)] = iterator.Entry{Key: k, Seq: seq, Tombstone: true}
			} else {
				v := []byte(fmt.Sprint(i))
				m.Put(k, v, seq)
				ref[string(k)] = iterator.Entry{Key: k, Value: v, Seq: seq}
			}
		}
		if m.Len() != len(ref) {
			return false
		}
		for k, want := range ref {
			got, ok := m.Get([]byte(k))
			if !ok || got.Seq != want.Seq || got.Tombstone != want.Tombstone || !bytes.Equal(got.Value, want.Value) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestCallerOwnsValueBuffer: the memtable keeps a version's value for as
// long as a reader may alias it, so it must not be the caller's buffer.
func TestCallerOwnsValueBuffer(t *testing.T) {
	m := New(1)
	v := []byte("value")
	m.Put([]byte("k"), v, 1)
	v[0] = 'X'
	if got, _ := m.Get([]byte("k")); string(got.Value) != "value" {
		t.Errorf("memtable aliased the caller's value buffer: %q", got.Value)
	}
}

// modelEntry is what the reference map remembers of a key's newest write.
type modelEntry struct {
	value string
	seq   uint64
	tomb  bool
}

// checkAgainstModel compares the memtable read under bound with want:
// a full iteration, an iteration from a random start, and a point read of
// every key in the key space.
func checkAgainstModel(t *testing.T, r *rand.Rand, m *Table, bound uint64, want map[string]modelEntry, keyspace int, what string) {
	t.Helper()
	same := func(e iterator.Entry, w modelEntry) bool {
		return string(e.Value) == w.value && e.Seq == w.seq && e.Tombstone == w.tomb
	}
	start := fmt.Sprintf("k%02d", r.Intn(keyspace))
	for _, from := range []string{"", start} {
		var fromKey []byte
		if from != "" {
			fromKey = []byte(from)
		}
		n, prev := 0, ""
		for it := m.IterAt(fromKey, bound); it.Valid(); it.Next() {
			e := it.Entry()
			k := string(e.Key)
			if k <= prev || k < from {
				t.Fatalf("%s: iteration from %q out of order at %q after %q", what, from, k, prev)
			}
			prev = k
			if w, ok := want[k]; !ok || !same(e, w) {
				t.Fatalf("%s: iteration from %q yields %q = %+v, model has %+v (present %v)", what, from, k, e, w, ok)
			}
			n++
		}
		wantN := 0
		for k := range want {
			if k >= from {
				wantN++
			}
		}
		if n != wantN {
			t.Fatalf("%s: iteration from %q yields %d keys, model has %d", what, from, n, wantN)
		}
	}
	for i := 0; i < keyspace; i++ {
		k := fmt.Sprintf("k%02d", i)
		e, ok := m.GetAt([]byte(k), bound)
		w, wok := want[k]
		if ok != wok || ok && !same(e, w) {
			t.Fatalf("%s: GetAt(%q) = %+v,%v, model has %+v,%v", what, k, e, ok, w, wok)
		}
	}
}

// TestPinnedReadsMatchModel drives random groups of puts, overwrites and
// deletes, registering and dropping readers at random points. Every
// registered reader must keep seeing the map as it stood when it took its
// bound, however much is written afterwards; the live view must match the
// map as it stands.
func TestPinnedReadsMatchModel(t *testing.T) {
	const keyspace = 24
	type reader struct {
		bound uint64
		view  map[string]modelEntry
	}
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		m := New(seed)
		live := map[string]modelEntry{}
		var readers []reader
		seq := uint64(0)
		for step := 0; step < 1500; step++ {
			switch op := r.Intn(12); {
			case op == 0 && len(readers) < 4:
				bound := m.Pin()
				view := make(map[string]modelEntry, len(live))
				for k, e := range live {
					view[k] = e
				}
				readers = append(readers, reader{bound, view})
			case op == 1 && len(readers) > 0:
				i := r.Intn(len(readers))
				readers = append(readers[:i], readers[i+1:]...)
				m.Unpin()
			default:
				for n := 1 + r.Intn(4); n > 0; n-- {
					seq++
					k := fmt.Sprintf("k%02d", r.Intn(keyspace))
					if r.Intn(4) == 0 {
						m.Delete([]byte(k), seq)
						live[k] = modelEntry{seq: seq, tomb: true}
					} else {
						v := fmt.Sprintf("v%d", seq)
						m.Put([]byte(k), []byte(v), seq)
						live[k] = modelEntry{value: v, seq: seq}
					}
				}
			}
			if step%7 != 0 {
				continue
			}
			for i, rd := range readers {
				checkAgainstModel(t, r, m, rd.bound, rd.view, keyspace, fmt.Sprintf("seed %d step %d reader %d (bound %d)", seed, step, i, rd.bound))
			}
			checkAgainstModel(t, r, m, seq, live, keyspace, fmt.Sprintf("seed %d step %d at the last seq", seed, step))
			if m.Len() != len(live) {
				t.Fatalf("seed %d step %d: Len = %d, model has %d keys", seed, step, m.Len(), len(live))
			}
			n := 0
			for it := m.Iter(); it.Valid(); it.Next() {
				e := it.Entry()
				if w := live[string(e.Key)]; string(e.Value) != w.value || e.Seq != w.seq || e.Tombstone != w.tomb {
					t.Fatalf("seed %d step %d: Iter yields %+v, model has %+v", seed, step, e, w)
				}
				if g, _ := m.Get(e.Key); g.Seq != e.Seq {
					t.Fatalf("seed %d step %d: Get(%q) at seq %d, Iter at %d", seed, step, e.Key, g.Seq, e.Seq)
				}
				n++
			}
			if n != len(live) {
				t.Fatalf("seed %d step %d: Iter yields %d keys, model has %d", seed, step, n, len(live))
			}
		}
	}
}

// TestRetentionGatedOnReaders: with no reader registered an overwrite
// keeps nothing of what it replaces, so SizeBytes stays where today's
// formula (key + 9 + value) puts it. With one registered, a hot key keeps
// the one version that reader can see however often it is overwritten, so
// neither the heap nor the cost of reading under the bound grows with the
// write count. What does grow is a key written between registrations: each
// superseded version is then some reader's, stays reachable and is
// charged, which is what walks a memtable under scans and writes into its
// flush threshold. Once the readers are gone the next overwrite gives the
// bytes back.
func TestRetentionGatedOnReaders(t *testing.T) {
	m := New(1)
	key, val := []byte("hot"), bytes.Repeat([]byte("v"), 100)
	one := len(key) + 9 + len(val)
	for i := 1; i <= 1000; i++ {
		m.Put(key, val, uint64(i))
	}
	if got := m.SizeBytes(); got != one {
		t.Fatalf("unpinned: SizeBytes after 1000 overwrites = %d, want %d", got, one)
	}

	first := m.Pin()
	const writes = 100000
	seq := first
	for i := 1; i <= writes; i++ {
		seq++
		m.Put(key, val, seq)
	}
	if got, want := m.SizeBytes(), one+9+len(val); got != want {
		t.Fatalf("one reader: SizeBytes after %d overwrites = %d, want %d (its version and the live one)", writes, got, want)
	}
	if e, ok := m.GetAt(key, first); !ok || e.Seq != first {
		t.Fatalf("pinned reader lost its version: %+v, %v", e, ok)
	}

	before := m.SizeBytes()
	for i := 1; i <= writes; i++ {
		bound := m.Pin()
		seq++
		m.Put(key, val, seq)
		if e, ok := m.GetAt(key, bound); !ok || e.Seq != bound {
			t.Fatalf("reader %d lost its version: %+v, %v", i, e, ok)
		}
		m.Unpin()
	}
	if got, want := m.SizeBytes(), before+writes*(9+len(val)); got != want {
		t.Fatalf("a reader per write: SizeBytes after %d overwrites = %d, want %d", writes, got, want)
	}
	if e, ok := m.GetAt(key, first); !ok || e.Seq != first {
		t.Fatalf("oldest reader lost its version: %+v, %v", e, ok)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1: versions are not keys", m.Len())
	}

	m.Unpin()
	m.Put(key, val, seq+1)
	if got := m.SizeBytes(); got != one {
		t.Fatalf("after unpin: SizeBytes = %d, want %d", got, one)
	}
}

// TestPinBoundIsHighestSeqNotLast: sequence numbers need only ascend per
// key — a WAL re-logged in key order replays them out of order across
// keys — so the bound Pin hands out is the highest applied, and covers
// every key whichever was written last.
func TestPinBoundIsHighestSeqNotLast(t *testing.T) {
	m := New(1)
	m.Put([]byte("a"), []byte("va"), 7)
	m.Put([]byte("b"), []byte("vb"), 3)
	m.Delete([]byte("c"), 5)
	bound := m.Pin()
	defer m.Unpin()
	if bound != 7 {
		t.Fatalf("Pin bound = %d, want 7", bound)
	}
	n := 0
	for it := m.IterAt(nil, bound); it.Valid(); it.Next() {
		n++
	}
	if n != 3 {
		t.Fatalf("IterAt under the Pin bound yields %d of 3 keys", n)
	}
	if _, ok := m.GetAt([]byte("a"), bound); !ok {
		t.Fatal("GetAt under the Pin bound misses the newest key")
	}
}

// BenchmarkPinnedGetHotKey is the cost of reading, under an old pin, a key
// that kept being overwritten: one long-lived reader registers, then the
// key is rewritten 10^5 times with a short-lived registration (a scan)
// after each write. Retention is judged by the newest registration alone,
// so every one of those versions stays linked, and the old reader's GetAt
// and iterator step walk the chain from its newest end — linearly, today.
// The number is here so that exact version trimming (ROADMAP read-path
// (b)) has something to be measured against.
func BenchmarkPinnedGetHotKey(b *testing.B) {
	const overwrites = 100000
	mt := New(1)
	key, val := []byte("hot"), []byte("value")
	mt.Put([]byte("cold"), val, 1)
	mt.Put(key, val, 2)
	bound := mt.Pin()
	defer mt.Unpin()
	for i := 0; i < overwrites; i++ {
		mt.Put(key, val, uint64(3+i))
		mt.Pin()
		mt.Unpin()
	}
	if retained := mt.SizeBytes(); retained < overwrites*len(val) {
		b.Fatalf("memtable holds %d bytes: the overwritten versions were not retained", retained)
	}
	b.Run("GetAt", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if e, ok := mt.GetAt(key, bound); !ok || e.Seq != 2 {
				b.Fatalf("GetAt = seq %d, %v; want the pinned version 2", e.Seq, ok)
			}
		}
	})
	b.Run("IterStep", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			it := mt.IterAt([]byte("cold"), bound)
			it.Next() // from "cold" onto the hot key's pinned version
			if !it.Valid() || it.Entry().Seq != 2 {
				b.Fatal("iterator did not land on the pinned version")
			}
		}
	})
}
