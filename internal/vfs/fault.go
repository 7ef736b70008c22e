package vfs

import (
	"fmt"
	"io/fs"
	"math/rand"
	"sync"
	"syscall"
)

// Op classifies filesystem operations for fault injection.
type Op int

const (
	OpCreate Op = iota
	OpOpen
	OpRead
	OpWrite
	OpSync
	OpRename
	OpRemove
	OpSyncDir
	numOps
)

func (o Op) String() string {
	switch o {
	case OpCreate:
		return "create"
	case OpOpen:
		return "open"
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	case OpSync:
		return "sync"
	case OpRename:
		return "rename"
	case OpRemove:
		return "remove"
	case OpSyncDir:
		return "syncdir"
	}
	return "unknown"
}

// ErrInjected marks every error produced by a Fault filesystem. Tests
// assert errors.Is(err, ErrInjected) to distinguish injected faults from
// real failures; injected errors also satisfy errors.Is against the
// underlying errno (syscall.EIO, syscall.ENOSPC) so production code that
// switches on errno behaves identically under injection.
var ErrInjected = fmt.Errorf("vfs: injected fault")

type injectedError struct {
	op    Op
	path  string
	errno error
}

func (e *injectedError) Error() string {
	return fmt.Sprintf("vfs: injected %s fault on %s: %v", e.op, e.path, e.errno)
}

func (e *injectedError) Unwrap() []error { return []error{ErrInjected, e.errno} }

// Fault wraps an FS and injects deterministic failures. Faults are driven
// by a seeded PRNG (per-op probabilities) and by scripted triggers
// (fail-the-Nth-sync, disk-full after N bytes, fail-next-truncate). All
// configuration methods are safe for concurrent use with operations.
//
// A torn write injects realistically: a random prefix of the buffer
// reaches the underlying file before the error returns, modeling a crash
// mid-write. Disk-full likewise writes the bytes that "fit" before
// returning ENOSPC.
type Fault struct {
	inner FS

	mu           sync.Mutex
	rng          *rand.Rand
	enabled      bool
	prob         [numOps]float64
	match        func(path string) bool // nil means all paths
	counts       [numOps]uint64
	syncSeen     int
	failSyncAt   int   // fail the Nth matching sync (1-based); 0 = off
	diskFree     int64 // bytes until ENOSPC; -1 = unlimited
	failTruncate bool  // fail the next Truncate (one-shot)
}

// NewFault wraps inner with a fault injector seeded for deterministic
// replay. Injection starts enabled but with all probabilities zero and no
// scripted triggers, so it is inert until configured.
func NewFault(inner FS, seed int64) *Fault {
	return &Fault{
		inner:    inner,
		rng:      rand.New(rand.NewSource(seed)),
		enabled:  true,
		diskFree: -1,
	}
}

// SetProb sets the probability (0..1) that an operation of class op fails
// with an injected I/O error.
func (f *Fault) SetProb(op Op, p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.prob[op] = p
}

// SetPathFilter restricts injection to paths for which match returns
// true. A nil filter (the default) matches every path.
func (f *Fault) SetPathFilter(match func(path string) bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.match = match
}

// FailNthSync arranges for the n-th subsequent matching Sync call
// (1-based) to fail with an injected EIO. The trigger is one-shot; the
// internal sync counter restarts from zero.
func (f *Fault) FailNthSync(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.syncSeen = 0
	f.failSyncAt = n
}

// SetDiskFullAfter simulates a device with n writable bytes remaining:
// once they are consumed, writes and creates fail with ENOSPC (writing
// the prefix that fits, as a real filesystem would). n < 0 disables the
// limit.
func (f *Fault) SetDiskFullAfter(n int64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.diskFree = n
}

// FailNextTruncate makes the next Truncate call fail with an injected
// EIO (one-shot). The WAL truncates to roll back a torn append; failing
// it exercises the log-poisoning path.
func (f *Fault) FailNextTruncate() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.failTruncate = true
}

// Disable stops all injection (probabilities and scripted triggers are
// retained). Chaos tests disable faults before the verification phase so
// assertion reads hit the real filesystem.
func (f *Fault) Disable() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.enabled = false
}

// Enable resumes injection after Disable.
func (f *Fault) Enable() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.enabled = true
}

// Injected reports how many faults of class op have been injected.
func (f *Fault) Injected(op Op) uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[op]
}

// InjectedTotal reports the total number of injected faults.
func (f *Fault) InjectedTotal() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	var n uint64
	for _, c := range f.counts {
		n += c
	}
	return n
}

// active reports (under f.mu) whether injection applies to path.
func (f *Fault) active(path string) bool {
	return f.enabled && (f.match == nil || f.match(path))
}

// roll decides (probability only) whether op on path fails; it returns a
// typed injected error or nil.
func (f *Fault) roll(op Op, path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.active(path) || f.prob[op] <= 0 {
		return nil
	}
	if f.rng.Float64() >= f.prob[op] {
		return nil
	}
	f.counts[op]++
	return &injectedError{op: op, path: path, errno: syscall.EIO}
}

// rollWrite decides the fate of an n-byte write: how many bytes to let
// through and what error (if any) to return.
func (f *Fault) rollWrite(path string, n int) (allow int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.active(path) {
		return n, nil
	}
	if f.diskFree >= 0 {
		if int64(n) > f.diskFree {
			allow = int(f.diskFree)
			f.diskFree = 0
			f.counts[OpWrite]++
			return allow, &injectedError{op: OpWrite, path: path, errno: syscall.ENOSPC}
		}
		f.diskFree -= int64(n)
	}
	if f.prob[OpWrite] > 0 && f.rng.Float64() < f.prob[OpWrite] {
		// Torn write: a random prefix reaches the file, then the error.
		f.counts[OpWrite]++
		return f.rng.Intn(n + 1), &injectedError{op: OpWrite, path: path, errno: syscall.EIO}
	}
	return n, nil
}

func (f *Fault) rollSync(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.active(path) {
		return nil
	}
	if f.failSyncAt > 0 {
		f.syncSeen++
		if f.syncSeen == f.failSyncAt {
			f.failSyncAt = 0
			f.counts[OpSync]++
			return &injectedError{op: OpSync, path: path, errno: syscall.EIO}
		}
	}
	if f.prob[OpSync] > 0 && f.rng.Float64() < f.prob[OpSync] {
		f.counts[OpSync]++
		return &injectedError{op: OpSync, path: path, errno: syscall.EIO}
	}
	return nil
}

func (f *Fault) rollCreate(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.active(path) {
		return nil
	}
	if f.diskFree == 0 {
		f.counts[OpCreate]++
		return &injectedError{op: OpCreate, path: path, errno: syscall.ENOSPC}
	}
	if f.prob[OpCreate] > 0 && f.rng.Float64() < f.prob[OpCreate] {
		f.counts[OpCreate]++
		return &injectedError{op: OpCreate, path: path, errno: syscall.EIO}
	}
	return nil
}

func (f *Fault) rollTruncate(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.active(path) {
		return nil
	}
	if f.failTruncate {
		f.failTruncate = false
		f.counts[OpWrite]++
		return &injectedError{op: OpWrite, path: path, errno: syscall.EIO}
	}
	return nil
}

// FS interface.

func (f *Fault) Create(path string) (File, error) {
	if err := f.rollCreate(path); err != nil {
		return nil, err
	}
	file, err := f.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fault: f, path: path}, nil
}

func (f *Fault) Open(path string) (File, error) {
	if err := f.roll(OpOpen, path); err != nil {
		return nil, err
	}
	file, err := f.inner.Open(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fault: f, path: path}, nil
}

func (f *Fault) Rename(oldpath, newpath string) error {
	if err := f.roll(OpRename, oldpath); err != nil {
		return err
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *Fault) Remove(path string) error {
	if err := f.roll(OpRemove, path); err != nil {
		return err
	}
	return f.inner.Remove(path)
}

func (f *Fault) MkdirAll(path string, perm fs.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}

func (f *Fault) ReadDir(path string) ([]fs.DirEntry, error) {
	return f.inner.ReadDir(path)
}

func (f *Fault) Stat(path string) (fs.FileInfo, error) {
	return f.inner.Stat(path)
}

func (f *Fault) ReadFile(path string) ([]byte, error) {
	if err := f.roll(OpRead, path); err != nil {
		return nil, err
	}
	return f.inner.ReadFile(path)
}

func (f *Fault) SyncDir(path string) error {
	if err := f.roll(OpSyncDir, path); err != nil {
		return err
	}
	return f.inner.SyncDir(path)
}

// faultFile threads per-call injection through an open handle.
type faultFile struct {
	File
	fault *Fault
	path  string
}

func (ff *faultFile) Write(p []byte) (int, error) {
	allow, ierr := ff.fault.rollWrite(ff.path, len(p))
	if ierr == nil {
		return ff.File.Write(p)
	}
	n := 0
	if allow > 0 {
		n, _ = ff.File.Write(p[:allow])
	}
	return n, ierr
}

func (ff *faultFile) ReadAt(p []byte, off int64) (int, error) {
	if err := ff.fault.roll(OpRead, ff.path); err != nil {
		return 0, err
	}
	return ff.File.ReadAt(p, off)
}

func (ff *faultFile) Sync() error {
	if err := ff.fault.rollSync(ff.path); err != nil {
		return err
	}
	return ff.File.Sync()
}

func (ff *faultFile) Truncate(size int64) error {
	if err := ff.fault.rollTruncate(ff.path); err != nil {
		return err
	}
	return ff.File.Truncate(size)
}

func (ff *faultFile) Name() string { return ff.path }
