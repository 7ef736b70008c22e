package kv

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"time"

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

// StatsHandler serves e.Stats as JSON. WithStatsHandler mounts it on a
// dedicated listener; callers with their own HTTP server can mount this
// handler wherever they like instead.
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

// statsServer is the HTTP listener WithStatsHandler starts alongside an
// engine; it lives and dies with the engine.
type statsServer struct {
	ln  net.Listener
	srv *http.Server
}

func startStatsServer(addr string, e Engine) (*statsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.Handle("/stats", StatsHandler(e))
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go srv.Serve(ln)
	return &statsServer{ln: ln, srv: srv}, nil
}

// Addr returns the listener's bound address (useful with ":0").
func (s *statsServer) Addr() string { return s.ln.Addr().String() }

func (s *statsServer) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}
