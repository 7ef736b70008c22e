package kv

import (
	"fmt"
	"time"

	"repro/internal/compaction"
	"repro/internal/lsm"
	"repro/internal/vfs"
)

// entryPoint names the constructor an Option is being applied by, so
// storage-only options can reject misuse on Dial and vice versa.
type entryPoint string

const (
	entryOpen    entryPoint = "Open"
	entryDial    entryPoint = "Dial"
	entryCluster entryPoint = "DialCluster"
)

// config collects everything the constructors need; options mutate it.
type config struct {
	entry entryPoint

	// Open.
	shards            int
	memtableBytes     int
	syncWAL           bool
	blockCacheBytes   int
	compactionWorkers int
	autoCompact       string
	fs                vfs.FS

	// Both.
	compactStrategy string
	compactK        int
	statsAddr       string

	// Dial and DialCluster.
	dialTimeout time.Duration

	// DialCluster.
	replicationN   int
	replicationW   int
	replicationR   int
	requestTimeout time.Duration
}

func defaultConfig(entry entryPoint) config {
	return config{
		entry:           entry,
		autoCompact:     "none",
		compactStrategy: "BT(I)",
		compactK:        4,
		dialTimeout:     10 * time.Second,
	}
}

// lsmOptions builds the per-partition engine options from the config.
func (c *config) lsmOptions() lsm.Options {
	opts := lsm.Options{
		MemtableBytes:     c.memtableBytes,
		SyncWAL:           c.syncWAL,
		BlockCacheBytes:   c.blockCacheBytes,
		CompactionWorkers: c.compactionWorkers,
		FS:                c.fs,
	}
	// WithAutoCompact already validated the name, so resolution here
	// cannot fail; the strategy seed and fan-in ride the Compact defaults.
	if p, err := lsm.PolicyByName(c.autoCompact, c.compactK, 1); err == nil {
		opts.AutoCompact = p
	}
	return opts
}

// compactSchedule resolves one Compact call's strategy and fan-in: opts
// where set, the configured defaults otherwise.
func (c *config) compactSchedule(opts *CompactOptions) (strategy string, k int) {
	strategy, k = c.compactStrategy, c.compactK
	if opts != nil {
		if opts.Strategy != "" {
			strategy = opts.Strategy
		}
		if opts.K >= 2 {
			k = opts.K
		}
	}
	return strategy, k
}

// Option configures Open or Dial.
type Option func(*config) error

// openOnly wraps an option body with an entry-point check.
func openOnly(name string, f func(*config) error) Option {
	return func(c *config) error {
		if c.entry != entryOpen {
			return fmt.Errorf("kv: %s applies only to Open: %w", name, ErrConfig)
		}
		return f(c)
	}
}

// WithShards partitions the key space over n independent engine shards,
// each with its own WAL, commit pipeline and compaction (directory layout:
// dir/shard-NNN beside a SHARDS marker). n == 1 opens a single partition
// rooted at dir itself, the layout lsm.Open writes; n == 0 (the default)
// adopts whatever layout the directory already holds. The shard count is
// fixed at creation — reopening an existing store with a different count
// is an error.
func WithShards(n int) Option {
	return openOnly("WithShards", func(c *config) error {
		if n < 0 {
			return fmt.Errorf("kv: negative shard count %d: %w", n, ErrConfig)
		}
		c.shards = n
		return nil
	})
}

// WithSyncWAL fsyncs the WAL on every commit. Group commit amortizes the
// fsync across concurrent writers, but each write is durable when its
// Write returns.
func WithSyncWAL() Option {
	return openOnly("WithSyncWAL", func(c *config) error {
		c.syncWAL = true
		return nil
	})
}

// WithMemtableBytes sets the per-partition memtable flush threshold. A
// full memtable is flushed in the background while writes fill the next,
// so buffered memory peaks at twice the threshold per partition:
// 2 × shards × n on a sharded store. Zero selects the engine default
// (4 MiB).
func WithMemtableBytes(n int) Option {
	return openOnly("WithMemtableBytes", func(c *config) error {
		c.memtableBytes = n
		return nil
	})
}

// WithBlockCacheBytes bounds the sstable block cache for the whole engine
// (a sharded store splits the budget across shards). Zero selects the
// default (8 MiB); negative disables caching.
func WithBlockCacheBytes(n int) Option {
	return openOnly("WithBlockCacheBytes", func(c *config) error {
		c.blockCacheBytes = n
		return nil
	})
}

// WithCompactionWorkers bounds the merge worker pool used by major
// compactions. Zero selects GOMAXPROCS.
func WithCompactionWorkers(n int) Option {
	return openOnly("WithCompactionWorkers", func(c *config) error {
		c.compactionWorkers = n
		return nil
	})
}

// WithAutoCompact enables minor compactions after flushes with the named
// policy: "size-tiered" (Cassandra's bucketing), "threshold" (Bigtable's
// count trigger), "leveled" (the LevelDB-style layout with per-level
// size targets), any live-capable strategy from the paper registry (SI,
// SO, BT, BT(I), BT(O), CHAIN, RANDOM — picking from per-table statistics
// and HyperLogLog overlap sketches), or "none" (the default).
func WithAutoCompact(policy string) Option {
	return openOnly("WithAutoCompact", func(c *config) error {
		if policy != "none" {
			if _, err := lsm.PolicyByName(policy, 0, 0); err != nil {
				return fmt.Errorf("kv: %w", err)
			}
		}
		c.autoCompact = policy
		return nil
	})
}

// WithFS routes every filesystem operation the engine performs — WAL,
// manifest, sstables, directory maintenance — through fsys instead of the
// OS filesystem. The primary use is fault injection (vfs.NewFault) in
// robustness tests: deterministic fsync failures, torn writes, ENOSPC and
// read corruption, without touching the host filesystem's behavior. A nil
// fsys selects the real filesystem.
func WithFS(fsys vfs.FS) Option {
	return openOnly("WithFS", func(c *config) error {
		c.fs = fsys
		return nil
	})
}

// WithCompactionStrategy sets the default merge-scheduling strategy and
// fan-in used by Compact calls whose CompactOptions do not override them.
// The initial default is "BT(I)" with fan-in 4.
func WithCompactionStrategy(strategy string, k int) Option {
	return func(c *config) error {
		if k >= 2 {
			c.compactK = k
		}
		if strategy == "" {
			return nil
		}
		// A name the engine does not plan with (see
		// compaction.NewLiveChooser) fails here, not at every Compact.
		if _, err := compaction.NewLiveChooser(strategy, 0); err != nil {
			return fmt.Errorf("kv: %w", err)
		}
		c.compactStrategy = strategy
		return nil
	}
}

// WithStatsHandler serves the engine's statistics as JSON over HTTP at
// addr (GET /stats), using the same Stats shape Engine.Stats returns. The
// listener starts with the engine and stops at Close. Applies to Open and
// Dial alike.
func WithStatsHandler(addr string) Option {
	return func(c *config) error {
		if addr == "" {
			return fmt.Errorf("kv: WithStatsHandler requires an address: %w", ErrConfig)
		}
		c.statsAddr = addr
		return nil
	}
}

// WithDialTimeout bounds how long Dial and DialCluster (and any
// transparent re-dial after a connection broke) wait for the TCP connect.
func WithDialTimeout(d time.Duration) Option {
	return func(c *config) error {
		if c.entry != entryDial && c.entry != entryCluster {
			return fmt.Errorf("kv: WithDialTimeout applies only to Dial and DialCluster: %w", ErrConfig)
		}
		if d <= 0 {
			return fmt.Errorf("kv: non-positive dial timeout %v: %w", d, ErrConfig)
		}
		c.dialTimeout = d
		return nil
	}
}

// clusterOnly wraps an option body with an entry-point check.
func clusterOnly(name string, f func(*config) error) Option {
	return func(c *config) error {
		if c.entry != entryCluster {
			return fmt.Errorf("kv: %s applies only to DialCluster: %w", name, ErrConfig)
		}
		return f(c)
	}
}

// WithReplication sets the cluster's replication factor and quorums:
// every key is stored on n distinct nodes, writes acknowledge after w
// replicas accept, reads after r replicas answer. r+w must exceed n so
// read and write quorums overlap. The default is n=3, w=2, r=2 —
// tolerating one unreachable node with no loss of availability or acked
// data. Rings smaller than n clamp gracefully (a single-node cluster
// behaves like a plain client).
func WithReplication(n, w, r int) Option {
	return clusterOnly("WithReplication", func(c *config) error {
		if n < 1 || w < 1 || r < 1 || w > n || r > n || r+w <= n {
			return fmt.Errorf("kv: invalid replication n=%d w=%d r=%d (need 1 <= w,r <= n and r+w > n): %w", n, w, r, ErrConfig)
		}
		c.replicationN, c.replicationW, c.replicationR = n, w, r
		return nil
	})
}

// WithRequestTimeout bounds each per-replica request attempt on a
// cluster engine; a dead-but-routable replica costs at most this before
// the router fails over to the remaining quorum. Zero selects the
// default (2s).
func WithRequestTimeout(d time.Duration) Option {
	return clusterOnly("WithRequestTimeout", func(c *config) error {
		if d <= 0 {
			return fmt.Errorf("kv: non-positive request timeout %v: %w", d, ErrConfig)
		}
		c.requestTimeout = d
		return nil
	})
}
