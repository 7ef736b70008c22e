package store

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"

	"repro/internal/kvnet"
	"repro/internal/lsm"
)

// TestStoreOverKvnet serves a 4-shard store through the unchanged kvnet
// protocol — the lsmserver -shards deployment — and exercises every op
// end to end: routed puts/gets/deletes, an atomic cross-shard batch, a
// globally ordered scan, fan-in flush, per-shard major compaction and
// aggregated stats.
func TestStoreOverKvnet(t *testing.T) {
	s := openStore(t, 4, lsm.Options{MemtableBytes: 32 << 10})
	srv := kvnet.NewServer(s)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })

	c, err := kvnet.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 600
	for i := 0; i < n; i++ {
		if err := c.Put(context.Background(), []byte(fmt.Sprintf("key-%05d", i)), []byte(fmt.Sprint(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Write(context.Background(), []kvnet.BatchOp{
		{Key: []byte("batch-a"), Value: []byte("1")},
		{Key: []byte("batch-b"), Value: []byte("2")},
		{Delete: true, Key: []byte("key-00000")},
	}); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Get(context.Background(), []byte("key-00123")); err != nil || string(v) != "123" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := c.Get(context.Background(), []byte("key-00000")); !errors.Is(err, kvnet.ErrNotFound) {
		t.Fatalf("deleted key Get = %v", err)
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	scan := new(kvnet.Stream)
	if err := c.OpenStream(context.Background(), scan, []byte("key-"), []byte("key.")); err != nil {
		t.Fatal(err)
	}
	scanned := 0
	for prev := ""; scan.Valid(); scan.Next() {
		if scanned > 0 && prev >= string(scan.Key()) {
			t.Fatal("cross-shard scan out of global order")
		}
		prev = string(scan.Key())
		scanned++
	}
	if err := scan.Err(); err != nil || scanned != n-1 {
		t.Fatalf("scan returned %d entries, %v; want %d", scanned, err, n-1)
	}
	scan.Close()
	// Build a second generation of tables so the fan-out compaction has
	// real merging to do on every shard.
	for i := 0; i < n; i++ {
		if err := c.Put(context.Background(), []byte(fmt.Sprintf("key-%05d", i)), []byte("v2")); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	info, err := c.Compact(context.Background(), "BT(I)", 2)
	if err != nil {
		t.Fatal(err)
	}
	if info.TablesBefore < 4 || len(info.StepStats) == 0 {
		t.Fatalf("compaction over %d tables in %d merges; want per-shard merges", info.TablesBefore, len(info.StepStats))
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Tables != 4 {
		t.Errorf("after per-shard major compaction Tables = %d, want 4 (one per shard)", st.Tables)
	}
	if st.GroupedWrites == 0 {
		t.Error("aggregated GroupedWrites is zero")
	}
	if v, err := c.Get(context.Background(), []byte("key-00123")); err != nil || string(v) != "v2" {
		t.Fatalf("Get after compaction = %q, %v", v, err)
	}
}

// TestStressServedScanSurfacesCorruptTable: a kvnet server on a two-shard store
// whose table fails its checksum mid-scan ends a stream — live or through a
// snapshot — and a one-shot scan with ErrCorrupt, not with the clean end a
// complete result would get.
func TestStressServedScanSurfacesCorruptTable(t *testing.T) {
	s := corruptedStore(t, 2)
	srv := kvnet.NewServer(s)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	c, err := kvnet.Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	drain := func(what string, open func(context.Context, *kvnet.Stream, []byte, []byte) error, start, end []byte) {
		st := new(kvnet.Stream)
		if err := open(ctx, st, start, end); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		defer st.Close()
		n := 0
		for ; st.Valid(); st.Next() {
			n++
		}
		if !errors.Is(st.Err(), lsm.ErrCorrupt) || n >= corruptKeys {
			t.Errorf("%s read %d of %d entries and ended with %v, want ErrCorrupt", what, n, corruptKeys, st.Err())
		}
	}
	drain("Stream", c.OpenStream, nil, nil)
	sn, err := c.Snapshot(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Release()
	drain("Snapshot.OpenStream", sn.OpenStream, nil, nil)
	drain("bounded OpenStream", c.OpenStream, []byte("key-"), []byte("key."))
}
