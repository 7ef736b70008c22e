package kvnet

import (
	"bufio"
	"bytes"
	"context"
	"net"
	"testing"
)

// TestGetRoundTripAllocatesOnlyItsValue pins the client side of a round
// trip: against a peer that allocates nothing (it answers every frame from
// one precomputed payload, reading through the same readFrame the server's
// read loop uses), a Get of a 100-byte value costs the process exactly one
// heap object — the value handed to the caller. A frame header that
// escapes again shows up here as 3.
func TestGetRoundTripAllocatesOnlyItsValue(t *testing.T) {
	if raceEnabled {
		t.Skip("pooled calls are dropped at random under the race detector")
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	value := bytes.Repeat([]byte{'v'}, 100)
	answer := EncodeResponse(Response{Status: StatusOK, Value: value})
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		r := bufio.NewReader(conn)
		var in, out []byte
		for {
			tag, payload, err := readFrame(r, in)
			if err != nil {
				return
			}
			in = payload
			if out, err = endFrame(append(beginFrame(out, tag), answer...)); err != nil {
				return
			}
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ctx, key := context.Background(), []byte("user000000000001")
	got := testing.AllocsPerRun(2000, func() {
		v, err := c.Get(ctx, key)
		if err != nil || len(v) != len(value) {
			t.Fatalf("Get = %d bytes, %v", len(v), err)
		}
	})
	c.Close()
	<-served
	if got != 1 {
		t.Errorf("Client.Get of a 100 B value allocates %.0f objects per round trip, want 1 (the returned value)", got)
	}
}
