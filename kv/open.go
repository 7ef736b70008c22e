package kv

import (
	"fmt"

	"repro/internal/store"
)

// Open opens (creating if necessary) an embedded engine rooted at dir.
// With WithShards(n), n > 1, the key space hash-partitions over n
// independent LSM shards under dir; with n <= 1 (or by default on a fresh
// directory) the engine is a single LSM partition rooted at dir itself —
// the same layout plain lsm.Open produces, so pre-façade directories open
// unchanged. A directory that already holds a sharded store is adopted at
// its persisted shard count when no explicit count is given.
func Open(dir string, opts ...Option) (Engine, error) {
	cfg := defaultConfig(entryOpen)
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	st, err := store.Open(dir, store.Options{Shards: cfg.shards, Options: cfg.lsmOptions()})
	if err != nil {
		return nil, err
	}
	eng := &localEngine{st: st, cfg: cfg}
	if cfg.statsAddr != "" {
		stats, err := startStatsServer(cfg.statsAddr, eng)
		if err != nil {
			st.Close()
			return nil, err
		}
		eng.stats = stats
	}
	return eng, nil
}

// Dial connects to a server at addr (see NewServer and cmd/lsmserver) and
// returns an Engine speaking the kvnet protocol to it. Concurrent
// operations share one multiplexed connection; cancelling one withdraws
// only that request. An iterator is one server-side scan under one
// consistent view, and a Snapshot is held by the server, so neither costs
// client memory proportional to the data. If the connection breaks the
// engine re-dials on the next operation.
func Dial(addr string, opts ...Option) (Engine, error) {
	cfg := defaultConfig(entryDial)
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if addr == "" {
		return nil, fmt.Errorf("kv: empty address: %w", ErrConfig)
	}
	eng, err := newRemoteEngine(cfg, addr)
	if err != nil {
		return nil, err
	}
	if cfg.statsAddr != "" {
		stats, err := startStatsServer(cfg.statsAddr, eng)
		if err != nil {
			eng.Close()
			return nil, err
		}
		eng.stats = stats
	}
	return eng, nil
}
