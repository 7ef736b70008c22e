package kv

import (
	"encoding/json"
	"net"
	"net/http"

	"repro/internal/kvnet"
)

// Server serves an embedded engine over TCP with the kvnet protocol —
// the counterpart of Dial. It wraps the network layer so that commands
// and examples can stand up a full client/server deployment through the
// public package alone.
type Server struct {
	srv *kvnet.Server
}

// NewServer wraps an engine returned by Open. Remote engines cannot be
// re-served (chain servers, don't proxy them). The caller retains
// ownership of the engine and closes it after the server shuts down.
func NewServer(e Engine) (*Server, error) {
	le, ok := e.(*localEngine)
	if !ok {
		return nil, errNotServable
	}
	return &Server{srv: kvnet.NewServer(le.st)}, nil
}

// Serve accepts connections on ln until Close. It always returns a
// non-nil error; after Close the error is net.ErrClosed.
func (s *Server) Serve(ln net.Listener) error { return s.srv.Serve(ln) }

// Close stops accepting, closes all connections, aborts in-flight
// requests and waits for handlers to drain.
func (s *Server) Close() error { return s.srv.Close() }

// ServerStats is a Server's connection-layer counters: the in-flight
// high-water mark, the streams and snapshot handles clients hold open, and
// how many of those were reaped because their client went quiet.
type ServerStats = kvnet.ServerStats

// Stats reports the server's connection-layer counters.
func (s *Server) Stats() ServerStats { return s.srv.Stats() }

// StatsHandler serves e.Stats as JSON, the same Stats shape Engine.Stats
// returns, on whatever mux the caller mounts it (lsmserver's -stats-http
// mounts it at /stats). The engine starts no listener of its own; once it
// is closed the handler answers 500.
func StatsHandler(e Engine) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		st, err := e.Stats(r.Context())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(st)
	})
}
