package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/kverr"
	"repro/internal/kvnet"
	"repro/internal/model"
)

// loadModel writes stream through rt, fifty writes to a batch, and records
// each batch in every model of ms.
func loadModel(t *testing.T, rt *Router, stream [][]model.Op, ms ...*model.Model) {
	t.Helper()
	for len(stream) > 0 {
		n := min(50, len(stream))
		var batch []model.Op
		for _, w := range stream[:n] {
			batch = append(batch, w...)
		}
		stream = stream[n:]
		ops := make([]kvnet.BatchOp, len(batch))
		for i, op := range batch {
			ops[i] = kvnet.BatchOp{Key: []byte(op.Key), Value: []byte(op.Value), Delete: op.Delete}
		}
		if err := rt.Write(context.Background(), ops); err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			m.Apply(batch...)
		}
	}
}

// killingReader is routerReader whose next scan kills nodes once it has
// yielded after entries.
type killingReader struct {
	routerReader
	after int
	kill  func()
}

func (r *killingReader) Scan(start, end []byte, fn func(key, value []byte) error) error {
	it, err := r.NewIterator(context.Background(), start, end)
	if err != nil {
		return err
	}
	defer it.Close()
	for n := 0; it.Valid(); it.Next() {
		if n++; n == r.after && r.kill != nil {
			r.kill()
			r.kill = nil
		}
		if err := fn(it.Key(), it.Value()); err != nil {
			return err
		}
	}
	return it.Err()
}

// TestScanSurvivesNodeKilledMidPass: nodes die in the middle of one
// iterator pass, after every stream has handed over its first chunk. With
// one of three gone (N−R = 1) the pass still returns the whole model; with
// two gone it ends in ErrUnavailable, never a pass that is silently short.
func TestScanSurvivesNodeKilledMidPass(t *testing.T) {
	for _, killed := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d of 3", killed), func(t *testing.T) {
			nodes, rt := startChaosCluster(t, 3, chaosOptions())
			m := model.New()
			loadModel(t, rt, model.Stream(int64(killed), 3000, model.Mix{Keys: 2500, Delete: 0.1, Batch: 0.2, Pad: 40}), m)
			r := &killingReader{routerReader: routerReader{rt}, after: 100, kill: func() {
				for _, n := range nodes[:killed] {
					n.Kill()
				}
			}}
			if killed == 1 {
				model.Check(t, r, m)
				if r.kill != nil {
					t.Fatal("the scan ended before it killed a node")
				}
				return
			}
			seen := 0
			err := r.Scan(nil, nil, func(_, _ []byte) error { seen++; return nil })
			if !errors.Is(err, kverr.ErrUnavailable) {
				t.Fatalf("pass with two of three nodes killed read %d entries and ended with %v, want ErrUnavailable", seen, err)
			}
		})
	}
}

// snapshotReader reads a cluster Snapshot for model.Check.
type snapshotReader struct{ *Snapshot }

func (r snapshotReader) Get(key []byte) ([]byte, bool, error) {
	v, err := r.Snapshot.Get(context.Background(), key)
	if errors.Is(err, kverr.ErrNotFound) {
		return nil, false, nil
	}
	return v, err == nil, err
}

func (r snapshotReader) Scan(start, end []byte, fn func(key, value []byte) error) error {
	it, err := r.NewIterator(context.Background(), start, end)
	if err != nil {
		return err
	}
	defer it.Close()
	for ; it.Valid(); it.Next() {
		if err := fn(it.Key(), it.Value()); err != nil {
			return err
		}
	}
	return it.Err()
}

// TestSnapshotHidesLaterWrites: writes that begin after Snapshot returns —
// overwrites, deletes and new keys — are invisible through its Get and its
// iterators, while the live router sees them.
func TestSnapshotHidesLaterWrites(t *testing.T) {
	_, rt := startChaosCluster(t, 3, Options{})
	before, now := model.New(), model.New()
	loadModel(t, rt, model.Stream(1, 800, model.Mix{Keys: 600, Delete: 0.2, Batch: 0.3}), before, now)
	sn, err := rt.Snapshot(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Release()
	loadModel(t, rt, model.Stream(2, 800, model.Mix{Keys: 900, Delete: 0.2, Batch: 0.3}), now)
	model.Check(t, snapshotReader{sn}, before)
	model.Check(t, routerReader{rt}, now)
}

// TestSnapshotIterationMemoryBounded: a full snapshot iteration buffers at
// most one chunk per node — N × kvnet's 256 KiB credit cap — whether the
// cluster holds n records or 4n, where a copy of the keyspace would grow
// with them.
func TestSnapshotIterationMemoryBounded(t *testing.T) {
	const maxCredit = 256 << 10 // kvnet's cap on one chunk
	for _, records := range []int{2500, 10000} {
		t.Run(fmt.Sprint(records), func(t *testing.T) {
			_, rt := startChaosCluster(t, 3, Options{})
			m := model.New()
			loadModel(t, rt, model.Stream(3, records, model.Mix{Keys: records, Pad: 200}), m)
			sn, err := rt.Snapshot(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			defer sn.Release()
			it, err := sn.NewIterator(context.Background(), nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			defer it.Close()
			seen, carried := 0, 0
			for ; it.Valid(); it.Next() {
				seen++
				carried += len(it.Key()) + len(it.Value())
			}
			if err := it.Err(); err != nil || seen != len(m.Keys()) {
				t.Fatalf("snapshot pass saw %d of %d keys, err %v", seen, len(m.Keys()), err)
			}
			held := 0
			for i := range it.streams {
				held += int(reflect.ValueOf(&it.streams[i]).Elem().FieldByName("maxChunk").Int())
			}
			t.Logf("%d records: %d bytes carried, at most %d held", records, carried, held)
			if held > len(it.streams)*maxCredit {
				t.Errorf("the streams held up to %d bytes at once, over %d nodes × %d", held, len(it.streams), maxCredit)
			}
			if records == 10000 && carried < len(it.streams)*maxCredit {
				t.Fatalf("the pass carried %d bytes: too few to prove anything against the cap", carried)
			}
		})
	}
}

// TestScanKeepsNewestVersion: with one replica still holding a key's old
// record — its copy of the acknowledged overwrite or delete parked in a
// gate — a scan and a snapshot answer the newest record, whichever node's
// stream is the lagging one.
func TestScanKeepsNewestVersion(t *testing.T) {
	gc := startGatedCluster(t, semanticsOptions())
	ctx := context.Background()
	for _, lagging := range gc.rt.ring.names {
		for _, del := range []bool{false, true} {
			key := []byte(fmt.Sprintf("newest-%s-%v", lagging, del))
			if err := gc.rt.Put(ctx, key, []byte("old")); err != nil {
				t.Fatal(err)
			}
			gc.settle(key, []byte("old"))
			gc.gates[lagging].holdWrites(1)
			var err error
			if del {
				err = gc.rt.Delete(ctx, key)
			} else {
				err = gc.rt.Put(ctx, key, []byte("new"))
			}
			if err != nil {
				t.Fatal(err)
			}
			gc.awaitCaught(lagging)
			if old := gc.stored(lagging, key); string(old.Value) != "old" || old.Tombstone {
				t.Fatalf("lagging replica %s holds %+v, want the old record", lagging, old)
			}
			sn, err := gc.rt.Snapshot(ctx)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range []model.Reader{routerReader{gc.rt}, snapshotReader{sn}} {
				var got []string
				if err := r.Scan(key, append(bytes.Clone(key), 0), func(_, v []byte) error {
					got = append(got, string(v))
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				want := []string{"new"}
				if del {
					want = nil
				}
				if !slices.Equal(got, want) {
					t.Fatalf("%T with %s lagging scanned %q, want %q", r, lagging, got, want)
				}
			}
			sn.Release()
			gc.gates[lagging].releaseWrites()
		}
	}
}
