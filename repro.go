// Package repro is a from-scratch Go reproduction of "Fast Compaction
// Algorithms for NoSQL Databases" (Ghosh, Gupta, Gupta, Kumar — ICDCS
// 2015): major compaction as an NP-hard optimization problem, the paper's
// greedy merge-scheduling heuristics with their approximation guarantees,
// the full evaluation pipeline (YCSB-style workload generation through the
// paper's fixed-key-count memtable model), and a real embedded LSM storage
// engine whose major compaction is scheduled by the same strategies.
//
// The storage engine runs major compaction in the background without
// blocking reads or writes: the live sstable set is snapshotted in a short
// critical section, the merge schedule executes off-lock on the compaction
// package's worker pool (the paper's Section 5.1 threaded BALANCETREE),
// and the merged result is swapped into the manifest atomically.
// Reference-counted sstable handles keep superseded tables alive until the
// last concurrent reader drains, and recovery deletes the orphaned merge
// outputs of a compaction that crashed before its swap. See README.md for
// the architecture and internal/lsm for the implementation.
//
// The public API is the kv package; everything behind it lives under
// internal/: see internal/compaction for the paper's contribution,
// internal/experiments for the evaluation, and internal/lsm for the
// storage engine. Runnable entry points are
// cmd/compactsim (which regenerates every figure of the paper's
// evaluation section), cmd/lsmdb, cmd/lsmserver and the examples/
// directory; the engine's benchmark harness is the nested bench/ module.
package repro
