package lsm

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/iterator"
)

// rangeModel checks a scan of [lo, hi) entry by entry against what the
// writer had acknowledged before the scan began: keys ascend inside the
// range, every value is its key's (residencyValue) at a generation no older
// than the model's, and no key the model holds is skipped.
type rangeModel struct {
	lo, hi, next int
	at           []int64 // generation each key had reached; 0: not yet written
}

func (m *rangeModel) entry(e iterator.Entry) error {
	var i, gen int
	if _, err := fmt.Sscanf(string(e.Key), "key-%d", &i); err != nil || i < m.next || i >= m.hi {
		return fmt.Errorf("[%d,%d): key %q after key %d", m.lo, m.hi, e.Key, m.next-1)
	}
	if err := m.skipTo(i); err != nil {
		return err
	}
	m.next = i + 1
	if _, err := fmt.Sscanf(string(e.Value), "%08d-%04d-", &i, &gen); err != nil ||
		!bytes.Equal(e.Key, scanKey(i)) || !bytes.Equal(e.Value, residencyValue(i, gen)) || int64(gen) < m.at[i-m.lo] {
		return fmt.Errorf("key %q read %.20q…, want generation >= %d", e.Key, e.Value, m.at[m.next-1-m.lo])
	}
	return nil
}

// skipTo fails if a key the model holds lies below i and was not read.
func (m *rangeModel) skipTo(i int) error {
	for ; m.next < i; m.next++ {
		if m.at[m.next-m.lo] > 0 {
			return fmt.Errorf("[%d,%d): key %d (generation %d) missing", m.lo, m.hi, m.next, m.at[m.next-m.lo])
		}
	}
	return nil
}

// TestRecycledScanStress races short scans and snapshot iterators — each
// drawing its merge, table iterators and key arenas from the free lists the
// last one returned them to — against write-triggered flushes, live minor
// compactions and repeated major compactions, with freed block arrays and
// emptied key arenas poisoned. Every entry is checked against the model and
// two iterators over one snapshot are read in lockstep, so an iterator
// recycled while a merge, a scan or its caller still reads it fails a
// comparison here. Run under -race.
func TestRecycledScanStress(t *testing.T) {
	cache.PoisonFreed.Store(true)
	defer cache.PoisonFreed.Store(false)
	db := openTestDB(t, Options{
		MemtableBytes:   16 << 10,
		BlockCacheBytes: 128 << 10,
		AutoCompact:     SizeTieredPolicy{},
	})
	const keys, window = 1000, 24
	var latest [keys]atomic.Int64 // generation last acknowledged per key
	var stop atomic.Bool
	var scans, snapshots atomic.Int64
	var wg sync.WaitGroup
	failed := func(err error) {
		t.Error(err)
		stop.Store(true)
	}
	model := func(lo, hi int) *rangeModel {
		m := &rangeModel{lo: lo, hi: hi, next: lo, at: make([]int64, hi-lo)}
		for i := range m.at {
			m.at[i] = latest[lo+i].Load()
		}
		return m
	}

	wg.Add(1)
	go func() { // writer: every key through generations 1..8
		defer wg.Done()
		defer stop.Store(true)
		for gen := 1; gen <= 8 && !stop.Load(); gen++ {
			for i := 0; i < keys; i++ {
				if err := db.PutContext(context.Background(), scanKey(i), residencyValue(i, gen)); err != nil {
					failed(err)
					return
				}
				latest[i].Store(int64(gen))
			}
		}
	}()
	wg.Add(1)
	go func() { // major compactions under the scans
		defer wg.Done()
		for seed := int64(1); !stop.Load(); seed++ {
			if _, err := db.MajorCompact("BT(I)", 2, seed); err != nil {
				failed(err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) { // short scans
			defer wg.Done()
			for n := r; !stop.Load(); n += 13 {
				lo := n * 37 % (keys - window)
				m := model(lo, lo+window)
				it, release, err := db.NewIterator(scanKey(lo), scanKey(lo+window))
				if err != nil {
					failed(err)
					return
				}
				for ; err == nil && it.Valid(); it.Next() {
					err = m.entry(it.Entry())
				}
				if err == nil {
					err = IterErr(it)
				}
				release()
				if err == nil {
					err = m.skipTo(m.hi)
				}
				if err != nil {
					failed(fmt.Errorf("scan: %w", err))
					return
				}
				scans.Add(1)
			}
		}(r)
	}
	wg.Add(1)
	go func() { // snapshots, each read by two iterators in lockstep
		defer wg.Done()
		for !stop.Load() {
			m := model(0, keys)
			sn, err := db.Snapshot()
			if err != nil {
				failed(err)
				return
			}
			a, releaseA, errA := sn.NewIterator(nil, nil)
			b, releaseB, errB := sn.NewIterator(nil, nil)
			sn.Release() // the iterators hold their own references
			if errA != nil || errB != nil {
				failed(fmt.Errorf("snapshot NewIterator: %v, %v", errA, errB))
				return
			}
			for ; err == nil && a.Valid() && b.Valid(); a.Next() {
				ea, eb := a.Entry(), b.Entry()
				if !bytes.Equal(ea.Key, eb.Key) || !bytes.Equal(ea.Value, eb.Value) {
					err = fmt.Errorf("%q=%.20q… beside %q=%.20q…", ea.Key, ea.Value, eb.Key, eb.Value)
				} else {
					err = m.entry(ea)
				}
				b.Next()
			}
			if err == nil && a.Valid() != b.Valid() {
				err = fmt.Errorf("one iterator ended before the other")
			}
			if err == nil {
				err = IterErr(a)
			}
			releaseA()
			releaseB()
			if err == nil {
				err = m.skipTo(m.hi)
			}
			if err != nil {
				failed(fmt.Errorf("snapshot: %w", err))
				return
			}
			snapshots.Add(1)
		}
	}()
	wg.Wait()
	if st := db.Stats(); st.Flushes < 20 || st.MinorCompactions == 0 || st.MajorCompactions == 0 {
		t.Fatalf("stress ran %d flushes, %d minor and %d major compactions", st.Flushes, st.MinorCompactions, st.MajorCompactions)
	}
	t.Logf("%d short scans, %d snapshots read twice, %d major compactions", scans.Load(), snapshots.Load(), db.Stats().MajorCompactions)
}
