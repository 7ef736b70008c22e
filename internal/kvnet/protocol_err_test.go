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
	}
	for name, buf := range badRequests {
		if _, err := DecodeRequest(buf); !errors.Is(err, ErrProtocol) {
			t.Errorf("DecodeRequest(%s): err = %v, want errors.Is(err, ErrProtocol)", name, err)
		}
	}

	stats := EncodeResponse(Response{Status: StatusOK, Stats: &lsm.Stats{Tables: 1}})
	badResponses := map[string][]byte{
		"empty response":      nil,
		"unknown kind":        {byte(StatusOK), 'Z'},
		"unknown status":      {77},
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
