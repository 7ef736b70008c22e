package vfs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

func TestDefaultRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.txt")

	f, err := Default.Create(path)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	if _, err := f.Write([]byte("hello world")); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r, err := Default.Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	buf := make([]byte, 5)
	if _, err := r.ReadAt(buf, 6); err != nil {
		t.Fatalf("readat: %v", err)
	}
	if string(buf) != "world" {
		t.Fatalf("readat = %q, want %q", buf, "world")
	}
	if err := r.Close(); err != nil {
		t.Fatalf("close reader: %v", err)
	}

	if err := Default.Rename(path, path+".2"); err != nil {
		t.Fatalf("rename: %v", err)
	}
	if err := Default.SyncDir(dir); err != nil {
		t.Fatalf("syncdir: %v", err)
	}
	data, err := Default.ReadFile(path + ".2")
	if err != nil || string(data) != "hello world" {
		t.Fatalf("readfile = %q, %v", data, err)
	}
	ents, err := Default.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("readdir = %v, %v", ents, err)
	}
	if err := Default.Remove(path + ".2"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if _, err := Default.Stat(path + ".2"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stat after remove = %v, want not-exist", err)
	}
}

func TestFaultInjectedErrorsAreTyped(t *testing.T) {
	fsys := NewFault(Default, 1)
	fsys.SetProb(OpCreate, 1.0)
	_, err := fsys.Create(filepath.Join(t.TempDir(), "x"))
	if err == nil {
		t.Fatal("expected injected create failure")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("error %v is not ErrInjected", err)
	}
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("error %v is not EIO", err)
	}
	if fsys.Injected(OpCreate) != 1 {
		t.Fatalf("Injected(OpCreate) = %d, want 1", fsys.Injected(OpCreate))
	}
}

func TestFaultTornWriteLeavesPrefix(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFault(Default, 42)
	path := filepath.Join(dir, "torn")
	f, err := fsys.Create(path)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	payload := []byte(strings.Repeat("abcdefgh", 128))
	fsys.SetProb(OpWrite, 1.0)
	n, err := f.Write(payload)
	if err == nil {
		t.Fatal("expected torn write to fail")
	}
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.EIO) {
		t.Fatalf("torn write error not typed: %v", err)
	}
	if n < 0 || n >= len(payload) {
		t.Fatalf("torn write reported n=%d of %d", n, len(payload))
	}
	fsys.SetProb(OpWrite, 0)
	if err := f.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("readfile: %v", err)
	}
	if len(data) != n {
		t.Fatalf("on-disk prefix = %d bytes, reported n = %d", len(data), n)
	}
}

func TestFaultDiskFull(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFault(Default, 7)
	path := filepath.Join(dir, "full")
	f, err := fsys.Create(path)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	fsys.SetDiskFullAfter(10)
	if _, err := f.Write([]byte("12345678")); err != nil {
		t.Fatalf("write within budget: %v", err)
	}
	n, err := f.Write([]byte("overflow!"))
	if !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrInjected) {
		t.Fatalf("overflow write err = %v, want ENOSPC", err)
	}
	if n != 2 {
		t.Fatalf("overflow wrote %d bytes, want the 2 that fit", n)
	}
	if _, err := f.Write([]byte("x")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("post-full write err = %v, want ENOSPC", err)
	}
	if _, err := fsys.Create(filepath.Join(dir, "another")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("post-full create err = %v, want ENOSPC", err)
	}
	fsys.SetDiskFullAfter(-1)
	if _, err := f.Write([]byte("recovered")); err != nil {
		t.Fatalf("write after freeing space: %v", err)
	}
	f.Close()
}

func TestFaultFailNthSync(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFault(Default, 3)
	f, err := fsys.Create(filepath.Join(dir, "s"))
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	defer f.Close()
	fsys.FailNthSync(3)
	for i := 1; i <= 5; i++ {
		err := f.Sync()
		if i == 3 {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("sync %d: err = %v, want injected", i, err)
			}
		} else if err != nil {
			t.Fatalf("sync %d: unexpected err %v", i, err)
		}
	}
}

func TestFaultPathFilterAndDisable(t *testing.T) {
	dir := t.TempDir()
	fsys := NewFault(Default, 9)
	fsys.SetProb(OpCreate, 1.0)
	fsys.SetPathFilter(func(p string) bool { return strings.HasSuffix(p, ".wal") })

	if _, err := fsys.Create(filepath.Join(dir, "data.sst")); err != nil {
		t.Fatalf("filtered-out path should not fault: %v", err)
	}
	if _, err := fsys.Create(filepath.Join(dir, "log.wal")); !errors.Is(err, ErrInjected) {
		t.Fatalf("matching path err = %v, want injected", err)
	}
	fsys.Disable()
	if _, err := fsys.Create(filepath.Join(dir, "log2.wal")); err != nil {
		t.Fatalf("disabled injector should pass through: %v", err)
	}
	fsys.Enable()
	if _, err := fsys.Create(filepath.Join(dir, "log3.wal")); !errors.Is(err, ErrInjected) {
		t.Fatalf("re-enabled injector err = %v, want injected", err)
	}
}

func TestFaultDeterminism(t *testing.T) {
	run := func() []uint64 {
		dir := t.TempDir()
		fsys := NewFault(Default, 12345)
		fsys.SetProb(OpWrite, 0.3)
		fsys.SetProb(OpSync, 0.2)
		f, err := fsys.Create(filepath.Join(dir, "d"))
		if err != nil {
			t.Fatalf("create: %v", err)
		}
		var outcomes []uint64
		for i := 0; i < 200; i++ {
			_, werr := f.Write([]byte("0123456789abcdef"))
			serr := f.Sync()
			var o uint64
			if werr != nil {
				o |= 1
			}
			if serr != nil {
				o |= 2
			}
			outcomes = append(outcomes, o)
		}
		f.Close()
		return outcomes
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded runs diverged at op %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestWriteFileAtomicKeepsOldBytesOnFault fails each step of
// WriteFileAtomic before its rename in turn: every time the call errors and
// the target still holds its old bytes. A failed directory sync comes after
// the rename, so the call errors with ErrRenamed and the new bytes in place.
func TestWriteFileAtomicKeepsOldBytesOnFault(t *testing.T) {
	old, next := []byte("old contents\n"), []byte("new contents, somewhat longer\n")
	for _, tc := range []struct {
		name string
		arm  func(f *Fault)
		want []byte
	}{
		{"create", func(f *Fault) { f.SetProb(OpCreate, 1) }, old},
		{"torn write", func(f *Fault) { f.SetProb(OpWrite, 1) }, old},
		{"disk full", func(f *Fault) { f.SetDiskFullAfter(5) }, old},
		{"sync", func(f *Fault) { f.FailNthSync(1) }, old},
		{"rename", func(f *Fault) { f.SetProb(OpRename, 1) }, old},
		{"syncdir", func(f *Fault) { f.SetProb(OpSyncDir, 1) }, next},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "MANIFEST")
			fsys := NewFault(Default, 1)
			if err := WriteFileAtomic(fsys, path, old); err != nil {
				t.Fatal(err)
			}
			tc.arm(fsys)
			err := WriteFileAtomic(fsys, path, next)
			renamed := string(tc.want) == string(next)
			if !errors.Is(err, ErrInjected) || errors.Is(err, ErrRenamed) != renamed {
				t.Fatalf("WriteFileAtomic under a %s fault = %v, want an injected error, ErrRenamed iff renamed", tc.name, err)
			}
			if got, err := os.ReadFile(path); err != nil || string(got) != string(tc.want) {
				t.Fatalf("target after a %s fault = %q, %v; want %q", tc.name, got, err, tc.want)
			}
			fsys.Disable()
			if err := WriteFileAtomic(fsys, path, next); err != nil {
				t.Fatalf("WriteFileAtomic after the fault cleared = %v", err)
			}
			if got, _ := os.ReadFile(path); string(got) != string(next) {
				t.Fatalf("target after a clean write = %q, want %q", got, next)
			}
			if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("temp file left after a clean write: %v", err)
			}
		})
	}
}
