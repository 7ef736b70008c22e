package kvnet

import (
	"errors"
	"testing"

	"repro/internal/lsm"
)

// TestDecodeErrorsWrapProtocolSentinel pins every decode failure to the
// ErrProtocol sentinel: a server (or client) that receives garbage must be
// able to classify it with errors.Is rather than string matching.
func TestDecodeErrorsWrapProtocolSentinel(t *testing.T) {
	badRequests := map[string][]byte{
		"empty request":   nil,
		"unknown op":      {99},
		"truncated field": {byte(OpPut), 200},
		"truncated batch": {byte(OpWrite), 5, 0},
		// The retired prefix and range scans' bytes, with bodies they took.
		"prefix scan op": {byte(OpDelete) + 1, 1, 'p', 0},
		"range op":       {byte(OpWrite) + 1, 1, 'a', 0, 10},
	}
	for name, buf := range badRequests {
		if _, err := DecodeRequest(buf); !errors.Is(err, ErrProtocol) {
			t.Errorf("DecodeRequest(%s): err = %v, want errors.Is(err, ErrProtocol)", name, err)
		}
	}

	stats := AppendResponse(nil, Response{Status: StatusOK, Stats: &lsm.Stats{Tables: 1}})
	badResponses := map[string][]byte{
		"empty response":      nil,
		"unknown kind":        {byte(StatusOK), 'Z'},
		"unknown status":      {77},
		"stream entries":      {byte(StatusChunk), 'E', 1, 'k', 1, 'v'},
		"last stream entries": {byte(StatusOK), 'E', 1, 'k', 1, 'v'},
		"truncated stats":     stats[:len(stats)-1],
		"garbage compact":     append([]byte{byte(StatusOK), 'C'}, "{\"TablesBefore\":\"x\"}"...),
		"empty compact body":  {byte(StatusOK), 'C'},
		"trailing stats junk": append(stats, '}'),
	}
	for name, buf := range badResponses {
		if _, err := DecodeResponse(buf); !errors.Is(err, ErrProtocol) {
			t.Errorf("DecodeResponse(%s): err = %v, want errors.Is(err, ErrProtocol)", name, err)
		}
	}
}
