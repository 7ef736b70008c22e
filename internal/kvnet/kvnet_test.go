package kvnet

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/kverr"
	"repro/internal/lsm"
	"repro/internal/sstable"
)

// startServer spins up a server over a fresh DB on a loopback listener and
// returns a connected client, the server, and the listen address.
func startServer(t *testing.T) (*Client, *Server, string) {
	t.Helper()
	db, err := lsm.Open(t.TempDir(), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	go srv.Serve(ln)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		client.Close()
		srv.Close()
		db.Close()
	})
	return client, srv, addr
}

func TestPutGetDeleteOverWire(t *testing.T) {
	c, _, _ := startServer(t)
	if err := c.Put(context.Background(), []byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	v, err := c.Get(context.Background(), []byte("k"))
	if err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if err := c.Delete(context.Background(), []byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(context.Background(), []byte("k")); err != ErrNotFound {
		t.Errorf("Get after delete = %v", err)
	}
	if _, err := c.Get(context.Background(), []byte("missing")); err != ErrNotFound {
		t.Errorf("Get missing = %v", err)
	}
}

func TestBinarySafeKeysAndValues(t *testing.T) {
	c, _, _ := startServer(t)
	key := []byte{0, 1, 2, 0xff, '\n', 0}
	val := make([]byte, 100000)
	for i := range val {
		val[i] = byte(i * 31)
	}
	if err := c.Put(context.Background(), key, val); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(context.Background(), key)
	if err != nil || !bytes.Equal(got, val) {
		t.Fatalf("binary round trip failed: %v", err)
	}
}

func TestScanPrefixAndLimit(t *testing.T) {
	c, _, _ := startServer(t)
	for i := 0; i < 50; i++ {
		if err := c.Put(context.Background(), []byte(fmt.Sprintf("a:%03d", i)), []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 20; i++ {
		if err := c.Put(context.Background(), []byte(fmt.Sprintf("b:%03d", i)), []byte("y")); err != nil {
			t.Fatal(err)
		}
	}
	// A prefix scan is the range from the prefix to its successor.
	st, err := c.Stream(context.Background(), []byte("a:"), []byte("a;"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var prev []byte
	n := 0
	for ; st.Valid(); st.Next() {
		if n > 0 && bytes.Compare(prev, st.Key()) >= 0 {
			t.Fatalf("scan out of order")
		}
		prev = append(prev[:0], st.Key()...)
		n++
	}
	if err := st.Err(); err != nil || n != 50 {
		t.Errorf("prefix scan returned %d entries, %v; want 50", n, err)
	}
	// A limit is the caller's: read ten entries and close the stream; the
	// connection carries on.
	st, err = c.Stream(context.Background(), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for n = 0; n < 10 && st.Valid(); st.Next() {
		n++
	}
	st.Close()
	if n != 10 {
		t.Errorf("limited scan returned %d", n)
	}
	if v, err := c.Get(context.Background(), []byte("b:019")); err != nil || string(v) != "y" {
		t.Errorf("Get after a closed stream = %q, %v", v, err)
	}
}

func TestCompactOverWire(t *testing.T) {
	c, _, _ := startServer(t)
	for gen := 0; gen < 4; gen++ {
		for i := 0; i < 300; i++ {
			if err := c.Put(context.Background(), []byte(fmt.Sprintf("key-%04d", i+gen*150)), []byte("value")); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Flush(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Tables != 4 {
		t.Fatalf("tables = %d", st.Tables)
	}
	info, err := c.Compact(context.Background(), "BT(I)", 2)
	if err != nil {
		t.Fatal(err)
	}
	if info.TablesBefore != 4 || len(info.StepStats) != 3 || info.BytesWritten == 0 || info.CostActual == 0 {
		t.Errorf("compact info = %+v", info)
	}
	st, err = c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Tables != 1 {
		t.Errorf("tables after = %d", st.Tables)
	}
	// An unknown or exact-set strategy surfaces as the server's ErrConfig.
	for _, strategy := range []string{"nope", "LM"} {
		if _, err := c.Compact(context.Background(), strategy, 2); !errors.Is(err, kverr.ErrConfig) {
			t.Errorf("strategy %q over wire: %v, want ErrConfig", strategy, err)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	_, _, addr := startServer(t)
	const clients = 4
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 200; i++ {
				k := []byte(fmt.Sprintf("c%d-%04d", w, i))
				if err := c.Put(context.Background(), k, k); err != nil {
					errs <- err
					return
				}
				got, err := c.Get(context.Background(), k)
				if err != nil || !bytes.Equal(got, k) {
					errs <- fmt.Errorf("get %s: %q, %v", k, got, err)
					return
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	for w := 0; w < clients; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestServerCloseUnblocksClients(t *testing.T) {
	c, srv, _ := startServer(t)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Put(context.Background(), []byte("k"), []byte("v")); err == nil {
		t.Errorf("Put succeeded after server close")
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

func TestWriteRequestRoundTrip(t *testing.T) {
	req := Request{Op: OpWrite, Batch: []BatchOp{
		{Key: []byte("a"), Value: []byte("1")},
		{Delete: true, Key: []byte{0, 0xff}},
		{Key: []byte("c"), Value: nil},
	}}
	got, err := DecodeRequest(EncodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.Op != OpWrite || len(got.Batch) != len(req.Batch) {
		t.Fatalf("round trip = %+v", got)
	}
	for i, op := range req.Batch {
		g := got.Batch[i]
		if g.Delete != op.Delete || !bytes.Equal(g.Key, op.Key) || !bytes.Equal(g.Value, op.Value) {
			t.Errorf("batch op %d changed: %+v -> %+v", i, op, g)
		}
	}
	// Truncated and hostile encodings must error, not panic or misparse.
	enc := EncodeRequest(req)
	for cut := 1; cut < len(enc); cut++ {
		if _, err := DecodeRequest(enc[:cut]); err == nil && cut < len(enc)-1 {
			t.Fatalf("truncated batch request at %d decoded without error", cut)
		}
	}
}

// stamped is a value in the record envelope with the given stamp.
func stamped(stamp uint64, value string) []byte {
	out := binary.BigEndian.AppendUint64([]byte{RecordFormat, 0}, stamp)
	return append(out, value...)
}

// TestVersionedWriteKeepsHighestStamp: a node keeps, of each key, the
// record with the highest stamp it has been sent, whatever the arrival
// order — across requests and within one batch — and says how many puts it
// applied. A delete, or a value outside the envelope, fails the batch.
func TestVersionedWriteKeepsHighestStamp(t *testing.T) {
	ctx := context.Background()
	c, _, _ := startServer(t)
	write := func(ops ...BatchOp) int {
		t.Helper()
		n, err := c.WriteVersioned(ctx, ops)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	holds := func(key string, want []byte) {
		t.Helper()
		if got, err := c.Get(ctx, []byte(key)); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s = %q, %v; want %q", key, got, err, want)
		}
	}
	if n := write(BatchOp{Key: []byte("k"), Value: stamped(2, "v2")}); n != 1 {
		t.Fatalf("first write applied %d puts", n)
	}
	if n := write(BatchOp{Key: []byte("k"), Value: stamped(1, "v1")}); n != 0 {
		t.Fatalf("an older stamp applied %d puts", n)
	}
	if n := write(BatchOp{Key: []byte("k"), Value: stamped(2, "again")}); n != 0 {
		t.Fatalf("an equal stamp applied %d puts", n)
	}
	holds("k", stamped(2, "v2"))
	n := write(
		BatchOp{Key: []byte("b"), Value: stamped(9, "b9")},
		BatchOp{Key: []byte("a"), Value: stamped(5, "a5")},
		BatchOp{Key: []byte("b"), Value: stamped(7, "b7")},
		BatchOp{Key: []byte("k"), Value: stamped(3, "v3")},
	)
	if n != 3 {
		t.Fatalf("batch applied %d puts, want 3 (a, b at 9, k)", n)
	}
	holds("a", stamped(5, "a5"))
	holds("b", stamped(9, "b9"))
	holds("k", stamped(3, "v3"))
	for name, op := range map[string]BatchOp{
		"delete":    {Key: []byte("k"), Delete: true},
		"unstamped": {Key: []byte("k"), Value: []byte("plain")},
	} {
		if _, err := c.WriteVersioned(ctx, []BatchOp{{Key: []byte("x"), Value: stamped(50, "x")}, op}); err == nil {
			t.Errorf("%s in a versioned batch was accepted", name)
		}
	}
	if _, err := c.Get(ctx, []byte("x")); !errors.Is(err, ErrNotFound) {
		t.Errorf("a refused batch applied part of itself: %v", err)
	}
	holds("k", stamped(3, "v3"))
}

// TestVersionedWriteOverStoredRecords: a server started over records it
// did not write — another server's, or its own plain puts — holds every
// versioned write to them to their stamps, though fresh writes skip reading
// what is stored (see stampFloor).
func TestVersionedWriteOverStoredRecords(t *testing.T) {
	ctx := context.Background()
	db, err := lsm.Open(t.TempDir(), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	serve := func() (*Client, func()) {
		srv := NewServer(db)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go srv.Serve(ln)
		c, err := Dial(ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return c, func() { c.Close(); srv.Close() }
	}
	c, stop := serve()
	if _, err := c.WriteVersioned(ctx, []BatchOp{{Key: []byte("k"), Value: stamped(5, "k5")}}); err != nil {
		t.Fatal(err)
	}
	stop()
	c, stop = serve()
	defer stop()
	versioned := func(key string, stamp uint64, want int) {
		t.Helper()
		n, err := c.WriteVersioned(ctx, []BatchOp{{Key: []byte(key), Value: stamped(stamp, "")}})
		if err != nil || n != want {
			t.Fatalf("%s at stamp %d applied %d puts, %v; want %d", key, stamp, n, err, want)
		}
	}
	versioned("k", 3, 0) // the first server's record
	if err := c.Put(ctx, []byte("j"), stamped(9, "j9")); err != nil {
		t.Fatal(err)
	}
	versioned("j", 7, 0) // a plain put's record
	versioned("k", 6, 1)
	versioned("j", 10, 1)
}

// slowScan is an engine whose scans of the whole keyspace wait until
// released or cancelled: a node holding more than a request's deadline can
// scan. It counts the one-key scans that read a stored stamp.
type slowScan struct {
	*lsm.DB
	release    chan struct{}
	stampReads atomic.Int64
}

func (e *slowScan) RangeContext(ctx context.Context, start, end []byte, fn func(key, value []byte) error) error {
	if start == nil && end == nil {
		select {
		case <-e.release:
		case <-ctx.Done():
			return ctx.Err()
		}
	} else {
		e.stampReads.Add(1)
	}
	return e.DB.RangeContext(ctx, start, end, fn)
}

// TestVersionedWriteDoesNotWaitForFloor: a server whose scan for the stamp
// floor outlasts a request's deadline still answers versioned writes within
// it, holding each to its key's stored stamp; once the scan is done, fresh
// writes stop reading what is stored.
func TestVersionedWriteDoesNotWaitForFloor(t *testing.T) {
	db, err := lsm.Open(t.TempDir(), lsm.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.PutContext(context.Background(), []byte("k"), stamped(5, "k5")); err != nil {
		t.Fatal(err)
	}
	e := &slowScan{DB: db, release: make(chan struct{})}
	srv := NewServer(e)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	versioned := func(key string, stamp uint64) int {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		n, err := c.WriteVersioned(ctx, []BatchOp{{Key: []byte(key), Value: stamped(stamp, "")}})
		if err != nil {
			t.Fatalf("%s at stamp %d while the floor scan is held: %v", key, stamp, err)
		}
		return n
	}
	if n := versioned("k", 3); n != 0 {
		t.Fatalf("k at stamp 3 over the stored 5 applied %d puts", n)
	}
	if n := versioned("j", 9); n != 1 {
		t.Fatalf("fresh j applied %d puts", n)
	}
	if got := e.stampReads.Load(); got != 2 {
		t.Fatalf("%d stamp reads before the floor is known, want 2: one per put", got)
	}
	close(e.release)
	for i, deadline := 0, time.Now().Add(10*time.Second); ; i++ {
		before := e.stampReads.Load()
		if n := versioned(fmt.Sprintf("fresh-%d", i), uint64(100+i)); n != 1 {
			t.Fatalf("fresh write %d applied %d puts", i, n)
		}
		if e.stampReads.Load() == before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("fresh writes still read their stored stamp after the floor scan was released")
		}
		time.Sleep(time.Millisecond)
	}
	if n := versioned("k", 4); n != 0 {
		t.Fatalf("k at stamp 4 over the stored 5 applied %d puts once the floor is known", n)
	}
}

// TestWriteBatchOverWire commits a mixed put/delete batch in one round trip
// and verifies its effects and the commit-pipeline stats it moves.
func TestWriteBatchOverWire(t *testing.T) {
	c, _, _ := startServer(t)
	if err := c.Put(context.Background(), []byte("doomed"), []byte("old")); err != nil {
		t.Fatal(err)
	}
	batch := []BatchOp{
		{Key: []byte("b1"), Value: []byte("v1")},
		{Key: []byte("b2"), Value: []byte("v2")},
		{Delete: true, Key: []byte("doomed")},
		{Key: []byte("b3"), Value: bytes.Repeat([]byte("z"), 4096)},
	}
	if err := c.Write(context.Background(), batch); err != nil {
		t.Fatal(err)
	}
	for _, op := range batch[:2] {
		got, err := c.Get(context.Background(), op.Key)
		if err != nil || !bytes.Equal(got, op.Value) {
			t.Fatalf("Get(%s) = %q, %v", op.Key, got, err)
		}
	}
	if _, err := c.Get(context.Background(), []byte("doomed")); err != ErrNotFound {
		t.Errorf("batched delete did not apply: %v", err)
	}
	if err := c.Write(context.Background(), nil); err != nil { // empty batch is a no-op
		t.Fatal(err)
	}
	// An empty key anywhere in the batch rejects the whole batch.
	if err := c.Write(context.Background(), []BatchOp{{Key: []byte("ok"), Value: []byte("v")}, {Key: nil}}); err == nil {
		t.Errorf("batch with empty key accepted")
	}
	if _, err := c.Get(context.Background(), []byte("ok")); err != ErrNotFound {
		t.Errorf("rejected batch partially applied: %v", err)
	}
	st, err := c.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// 1 put + 1 batch of 4 committed = at least 5 records over ≥ 2 groups.
	if st.GroupCommits < 2 || st.GroupedWrites < 5 {
		t.Errorf("pipeline stats not reported: %+v", st)
	}
}

func TestProtocolRoundTrip(t *testing.T) {
	reqs := []Request{
		{Op: OpPut, Key: []byte("k"), Value: []byte("v")},
		{Op: OpGet, Key: []byte{0, 1, 2}},
		{Op: OpDelete, Key: []byte("x")},
		{Op: OpStream, Handle: 2, Start: []byte("p"), End: []byte("q"), Credit: 42},
		{Op: OpFlush},
		{Op: OpCompact, Strategy: "BT(I)", K: 3},
		{Op: OpStats},
	}
	for _, req := range reqs {
		got, err := DecodeRequest(EncodeRequest(req))
		if err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
		if got.Op != req.Op || !bytes.Equal(got.Key, req.Key) || !bytes.Equal(got.Value, req.Value) ||
			!bytes.Equal(got.Start, req.Start) || !bytes.Equal(got.End, req.End) || got.Credit != req.Credit ||
			got.Strategy != req.Strategy || got.K != req.K {
			t.Errorf("round trip changed request: %+v -> %+v", req, got)
		}
	}
	resps := []Response{
		{Status: StatusOK, Value: []byte("v")},
		{Status: StatusNotFound},
		{Status: StatusError, Err: "boom"},
		{Status: StatusOK, Compact: &lsm.CompactionResult{Strategy: "BT(I)", TablesBefore: 3, TablesAfter: 1,
			StepStats: []sstable.MergeStats{{BytesRead: 6, BytesWritten: 3, EntriesIn: 4, EntriesOut: 2}, {BytesRead: 4, BytesWritten: 2, EntriesIn: 2, EntriesOut: 1}},
			BytesRead: 10, BytesWritten: 5, CostSimple: 6, CostActual: 7, Duration: 99 * time.Microsecond}},
		{Status: StatusOK, Stats: &lsm.Stats{Tables: 1, TableBytes: 2, MemtableKeys: 3, Flushes: 4, MinorCompactions: 5,
			MajorCompactions: 6, WriteStalls: 7, WriteStallTime: 8 * time.Millisecond, BytesFlushed: 9, BytesCompacted: 10,
			CompactionPicks: map[string]uint64{"BT(I)": 11, "size-tiered": 12}, Generation: 13, CompactionState: "merging",
			BlockCacheHits: 14, BlockCacheMisses: 15, BlockCacheShardBalance: 1.25, FilterNegatives: 16, FilterFalsePositives: 17,
			GroupCommits: 18, GroupedWrites: 19, WALSyncs: 20, WALRecoveredRecords: 21, WALRecoveredBatches: 22,
			WALRecoveredBytes: 23, WALRecoveryTruncated: true, ReadOnly: true, QuarantinedTables: 24, CleanupFailures: 25}},
	}
	for _, resp := range resps {
		got, err := DecodeResponse(EncodeResponse(resp))
		if err != nil {
			t.Fatalf("%+v: %v", resp, err)
		}
		if got.Status != resp.Status || got.Err != resp.Err || !bytes.Equal(got.Value, resp.Value) {
			t.Errorf("round trip changed response: %+v -> %+v", resp, got)
		}
		if !reflect.DeepEqual(got.Compact, resp.Compact) {
			t.Errorf("compact result changed: %+v -> %+v", resp.Compact, got.Compact)
		}
		if !reflect.DeepEqual(got.Stats, resp.Stats) {
			t.Errorf("stats changed: %+v -> %+v", resp.Stats, got.Stats)
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	if _, err := DecodeRequest(nil); err == nil {
		t.Errorf("empty request accepted")
	}
	if _, err := DecodeRequest([]byte{99}); err == nil {
		t.Errorf("unknown op accepted")
	}
	if _, err := DecodeRequest([]byte{byte(OpDelete) + 1, 1, 'p', 0}); err == nil {
		t.Errorf("the retired prefix scan's op byte accepted")
	}
	if _, err := DecodeRequest([]byte{byte(OpPut), 200}); err == nil {
		t.Errorf("truncated put accepted")
	}
	if _, err := DecodeResponse(nil); err == nil {
		t.Errorf("empty response accepted")
	}
	if _, err := DecodeResponse([]byte{byte(StatusOK), 'Z'}); err == nil {
		t.Errorf("unknown kind accepted")
	}
	if _, err := DecodeResponse([]byte{77}); err == nil {
		t.Errorf("unknown status accepted")
	}
}

func BenchmarkRoundTrip(b *testing.B) {
	db, err := lsm.Open(b.TempDir(), lsm.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	srv := NewServer(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve(ln)
	defer srv.Close()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	val := bytes.Repeat([]byte("v"), 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		key := []byte(fmt.Sprintf("key-%09d", i))
		if err := c.Put(context.Background(), key, val); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Get(context.Background(), key); err != nil {
			b.Fatal(err)
		}
	}
}

func TestQuickProtocolRequests(t *testing.T) {
	f := func(key, value []byte) bool {
		req := Request{Op: OpPut, Key: key, Value: value}
		got, err := DecodeRequest(EncodeRequest(req))
		return err == nil && bytes.Equal(got.Key, key) && bytes.Equal(got.Value, value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestDurabilityErrorCodesOverWire checks the two durability-taxonomy
// errors survive the encode/decode round trip as errors.Is-able
// sentinels: a corrupt read and a read-only engine must be programmable
// against on the client exactly as they are in-process.
func TestDurabilityErrorCodesOverWire(t *testing.T) {
	cases := []struct {
		in   error
		code ErrCode
		want error
	}{
		{fmt.Errorf("lsm: table x: %w", kverr.ErrCorrupt), CodeCorrupt, kverr.ErrCorrupt},
		{fmt.Errorf("lsm: %w (cause: sync failed)", kverr.ErrReadOnly), CodeReadOnly, kverr.ErrReadOnly},
	}
	for _, tc := range cases {
		resp := errResponse(tc.in)
		if resp.Status != StatusError || resp.Code != tc.code {
			t.Fatalf("errResponse(%v) = %+v, want code %d", tc.in, resp, tc.code)
		}
		got, err := DecodeResponse(EncodeResponse(resp))
		if err != nil {
			t.Fatal(err)
		}
		if rehydrated := decodeServerError(got.Code, got.Err); !errors.Is(rehydrated, tc.want) {
			t.Fatalf("decoded error %v does not match sentinel %v", rehydrated, tc.want)
		}
	}
}
