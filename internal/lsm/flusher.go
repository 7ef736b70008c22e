// Memtable hand-off: the group commit that fills the memtable freezes it as
// imm, starts a fresh memtable and WAL segment, and returns; the flusher
// goroutine writes imm to a table and runs the AutoCompact picks with no
// lock held across file I/O. At most one imm exists — a writer that fills
// the next memtable first waits — so rotation points, flush contents and
// the pick sequence depend on the operations alone, never on timing. The
// memtable Open recovers leaves the same way, and Open waits for its flush.
package lsm

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/memtable"
	"repro/internal/sstable"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// walPrefix starts the name of every WAL file. Segment n is wal.log.NNNNNN;
// a bare wal.log, which earlier versions wrote, reads as segment 0, and
// wal.log.new, which an earlier version's Open built, is an orphan.
const walPrefix = "wal.log"

func segmentName(n uint64) string {
	if n == 0 {
		return walPrefix
	}
	return fmt.Sprintf("%s.%06d", walPrefix, n)
}

func (db *DB) segmentPath(n uint64) string { return filepath.Join(db.dir, segmentName(n)) }

// listSegments returns the numbers of the WAL segments in dir, ascending.
func listSegments(fsys vfs.FS, dir string) ([]uint64, error) {
	entries, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("lsm: scan for wal segments: %w", err)
	}
	var segs []uint64
	for _, ent := range entries {
		name := ent.Name()
		if name == walPrefix {
			segs = append(segs, 0)
		} else if num, ok := strings.CutPrefix(name, walPrefix+"."); ok {
			if n, err := strconv.ParseUint(num, 10, 64); err == nil && n > 0 {
				segs = append(segs, n)
			}
		}
	}
	slices.Sort(segs)
	return segs, nil
}

// errWALGap ends the replay of a segment that does not follow on from the
// ones before it.
var errWALGap = errors.New("lsm: wal segment does not continue the sequence")

// recoverWAL replays the WAL segments a previous incarnation left, oldest
// first, into the fresh memtable, which becomes imm — flushed with no picks
// after it, as on an explicit Flush, and the flush removes the segments —
// and opens a fresh segment. A record at or below the highest sequence
// number in any table is already flushed — its segment outlived the
// manifest save that made it redundant — and is skipped.
//
// Sequence numbers run on from one segment into the next, and that, not a
// torn frame, is what ends replay: a segment after the oldest that begins
// past the next unseen number was written after records that are lost, so
// it and what follows it are dropped, as the tail behind a tear is. A tear
// that lost only flushed records ends nothing. Called from Open before
// anything else can touch the DB.
func (db *DB) recoverWAL() error {
	segs, err := listSegments(db.fs, db.dir)
	if err != nil {
		return err
	}
	var flushed uint64
	for _, th := range db.tables {
		if th.hasBounds && th.maxSeq > flushed {
			flushed = th.maxSeq
		}
	}
	db.nextSeq = db.man.nextSeq
	replayed := len(segs)
	for i, n := range segs {
		skipped, first := 0, i > 0
		stats, err := wal.Replay(db.fs, db.segmentPath(n), func(r wal.Record) error {
			if first && r.Seq > db.nextSeq {
				return errWALGap
			}
			first = false
			if r.Seq <= flushed {
				skipped++
				return nil
			}
			switch r.Op {
			case wal.OpPut:
				db.mem.Put(r.Key, r.Value, r.Seq)
			case wal.OpDelete:
				db.mem.Delete(r.Key, r.Seq)
			}
			if r.Seq >= db.nextSeq {
				db.nextSeq = r.Seq + 1
			}
			return nil
		})
		if err == errWALGap {
			db.stats.WALRecoveryTruncated = true
			replayed = i
			break
		}
		if err != nil {
			return err
		}
		// A truncated log is a legitimate crash artifact, but one operators
		// should be able to see (Stats.WALRecoveryTruncated).
		db.stats.WALRecoveredRecords += stats.Records - skipped
		db.stats.WALRecoveredBatches += stats.Batches
		db.stats.WALRecoveredBytes += stats.GoodBytes
		db.stats.WALRecoveryTruncated = db.stats.WALRecoveryTruncated || stats.Truncated
	}

	// A segment replay dropped would end the next replay again, ahead of the
	// writes to come: the DB takes none until all are gone.
	for _, n := range segs[replayed:] {
		if err := db.fs.Remove(db.segmentPath(n)); err != nil {
			return fmt.Errorf("lsm: remove wal segment past a gap: %w", err)
		}
	}
	segs = segs[:replayed]
	if len(segs) > 0 {
		db.logNum = segs[len(segs)-1]
	}
	if err := db.openSegment(); err != nil {
		return err
	}
	if db.mem.Len() == 0 {
		// The tables hold every record the segments do.
		for _, n := range segs {
			db.removeFile(segmentName(n))
		}
		return nil
	}
	db.imm, db.immLogs, db.immPicks = db.mem, segs, false
	db.rotations++
	db.mem = memtable.NewFrom(&db.slabs, int64(db.rotations))
	return nil
}

// removeFile deletes a file of the store that nothing references any more.
// A failure leaves garbage the next Open retries, so it is counted
// (Stats.CleanupFailures), not returned.
func (db *DB) removeFile(name string) {
	if err := db.fs.Remove(filepath.Join(db.dir, name)); err != nil {
		db.cleanupFails.Add(1)
	}
}

// rotateLocked freezes the memtable as imm and directs writes to a fresh
// memtable and a fresh WAL segment. picks says whether the flusher runs the
// AutoCompact picks after flushing it — a write-triggered rotation does, an
// explicit Flush does not. Callers hold pipeMu (the segment swap must not
// race a group commit's append-then-apply window) and mu, with imm nil. A
// failure leaves everything as it was and the next commit tries again.
func (db *DB) rotateLocked(picks bool) error {
	old, oldNum := db.log, db.logNum
	if err := db.openSegment(); err != nil {
		return err
	}
	// The old segment is complete; what it holds stays on disk until the
	// flush of imm is in the manifest.
	if cerr := old.Close(); cerr != nil {
		db.cleanupFails.Add(1)
	}
	db.imm, db.immLogs, db.immPicks = db.mem, []uint64{oldNum}, picks
	// The skiplist seed counts rotations, not file numbers: those are
	// handed out to flushes and merges running beside the writer.
	db.rotations++
	db.mem = memtable.NewFrom(&db.slabs, int64(db.rotations))
	db.installViewLocked()
	db.flushCond.Broadcast()
	return nil
}

// openSegment directs writes to a fresh WAL segment, numbered one past the
// current one. A failure changes nothing and leaves no file behind.
func (db *DB) openSegment() error {
	num := db.logNum + 1
	log, err := wal.Create(db.fs, db.segmentPath(num))
	if err == nil && db.opts.SyncWAL {
		// An fsync of the segment makes its records durable only if its
		// directory entry is.
		if err = db.fs.SyncDir(db.dir); err != nil {
			log.Close()
			db.removeFile(segmentName(num))
		}
	}
	if err != nil {
		return fmt.Errorf("lsm: create wal segment: %w", err)
	}
	db.log, db.logNum = log, num
	return nil
}

// waitFlusherLocked blocks until imm has been flushed and, with idle set,
// until the picks that follow a flush and every other minor merge have
// finished too. A failure the flusher is holding is handed to this caller,
// and taking it is what makes the flusher try again. Callers hold mu;
// holding pipeMu as well keeps writers from rotating in a new imm. A wait
// cut short by ctx returns ErrStalled wrapping ctx's error; a caller whose
// ctx can expire arranges for its expiry to broadcast flushCond (see
// stallForFlusherLocked). Flush and MajorCompact take no ctx and wait
// under context.Background.
func (db *DB) waitFlusherLocked(ctx context.Context, idle bool) error {
	for {
		if err := db.flushErr; err != nil {
			db.flushErr = nil
			db.flushCond.Broadcast()
			return err
		}
		if db.imm == nil && !(idle && (db.flushing || db.merging > 0)) {
			return nil
		}
		if db.closed {
			return ErrClosed
		}
		if err := db.readOnlyErrLocked(); err != nil {
			return err
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", ErrStalled, err)
		}
		db.flushCond.Wait()
	}
}

// lockQuiesced acquires pipeMu and mu with the DB open, the flusher idle and
// no minor merge in flight, so the caller sees a table set nothing is about
// to change. On an error no lock is held.
func (db *DB) lockQuiesced() error {
	db.pipeMu.Lock()
	db.mu.Lock()
	err := db.waitFlusherLocked(context.Background(), true)
	if err == nil && db.closed {
		err = ErrClosed
	}
	if err != nil {
		db.mu.Unlock()
		db.pipeMu.Unlock()
	}
	return err
}

// flushMemLocked has the flusher write the current memtable to a table, with
// no picks after it, and waits for that. Callers hold pipeMu and mu, as left
// by lockQuiesced.
func (db *DB) flushMemLocked() error {
	if db.mem.Len() == 0 {
		return nil
	}
	if err := db.readOnlyErrLocked(); err != nil {
		return err
	}
	if err := db.rotateLocked(false); err != nil {
		return err
	}
	return db.waitFlusherLocked(context.Background(), true)
}

// flusher is the DB's flush goroutine: it flushes each imm and runs the
// picks that follow, until Close. A failure waits in flushErr for whoever
// next waits on the flusher; the flusher itself does nothing more until
// that error is taken, and nothing at all once the DB is read-only.
func (db *DB) flusher() {
	defer db.flusherWG.Done()
	db.mu.Lock()
	defer db.mu.Unlock()
	for {
		for !db.closed && (db.imm == nil || db.flushErr != nil || db.roCause != nil) {
			db.flushCond.Wait()
		}
		if db.closed {
			return
		}
		db.flushing = true
		picks := db.immPicks && db.opts.AutoCompact != nil
		err := db.flushImmLocked()
		for picks && err == nil && !db.closed {
			var ran bool
			if _, ran, err = db.minorCompactLocked(db.opts.AutoCompact); !ran {
				break
			}
		}
		db.flushing = false
		if !db.closed {
			db.flushErr = err
		}
		db.flushCond.Broadcast()
	}
}

// flushImmLocked writes imm to a fresh sstable and makes it the newest live
// table, then removes imm's WAL segments. It is called and returns with mu
// held, and releases it for the file I/O. A failure before the manifest
// records the table leaves imm and its segments in place for the retry; a
// segment left by a failed removal holds only records the next Open skips.
func (db *DB) flushImmLocked() error {
	imm := db.imm
	name := db.allocTableNameLocked()
	db.mu.Unlock()
	rd, err := db.buildTable(name, imm.Len(), false, func(w *sstable.Writer) error {
		return sstable.WriteAll(w, imm.Iter())
	})
	db.mu.Lock()
	if err != nil {
		return err
	}
	th := db.newTableHandle(name, rd)
	// One past what the tables hold, whatever the writer has committed
	// since the rotation: replay raises it past every surviving WAL record.
	prevSeq := db.man.nextSeq
	if th.hasBounds {
		db.man.nextSeq = th.maxSeq + 1
	}
	// Newest first. imm leaves with the commit, so the view it publishes
	// is the flush's one view install.
	db.imm = nil
	if err := db.setTablesLocked(append([]*tableHandle{th}, db.tables...)); err != nil {
		// The data is safe in imm and its segment. A manifest renamed into
		// place names the table, so its file stays for the next Open.
		db.imm, db.man.nextSeq = imm, prevSeq
		rd.Close()
		if !errors.Is(err, vfs.ErrRenamed) {
			db.removeFile(name)
		}
		return err
	}
	segs := db.immLogs
	db.stats.Flushes++
	db.stats.BytesFlushed += rd.FileSize()
	// Readers pinned to an older view keep reading imm, whose contents the
	// new table duplicates: no version is ever invisible. The last of them
	// to let go recycles it.
	imm.Release()
	db.flushCond.Broadcast()
	db.mu.Unlock()
	for _, n := range segs {
		db.removeFile(segmentName(n))
	}
	db.mu.Lock()
	return nil
}

// stallForFlusherLocked is the write path's wait for imm to clear before it
// rotates again: the engine's one writer backpressure, counted in
// Stats.WriteStalls. ctx is the group leader's. flushCond has no select
// form, so ctx's expiry is delivered by a broadcast that wakes every
// waiter, and each rechecks its own ctx.
func (db *DB) stallForFlusherLocked(ctx context.Context) error {
	if db.imm != nil {
		db.stats.WriteStalls++
		start := time.Now()
		defer func() { db.stats.WriteStallTime += time.Since(start) }()
		if ctx.Done() != nil {
			stop := context.AfterFunc(ctx, func() {
				db.mu.Lock()
				db.flushCond.Broadcast()
				db.mu.Unlock()
			})
			defer stop()
		}
	}
	return db.waitFlusherLocked(ctx, false)
}
