package lsm

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/vfs"
)

// manifest records the durable state of the store: the next file number and
// the list of live sstables, newest first. A table's bounds and key sketch
// live in its own file. The manifest is rewritten atomically (write temp,
// fsync, rename) on every change, the classic small-manifest design.
type manifest struct {
	nextFileNum uint64
	nextSeq     uint64
	tables      []string // sstable file names, newest first
	// levels records each table's position in a leveled layout; tables at
	// level 0 (fresh flushes, flat layouts) are omitted.
	levels map[string]int
}

const manifestName = "MANIFEST"

// record rebuilds the manifest's table list and levels from the
// prospective live handle set, newest first, called immediately before save.
func (m *manifest) record(handles []*tableHandle) {
	m.tables = make([]string, len(handles))
	m.levels = make(map[string]int)
	for i, th := range handles {
		m.tables[i] = th.name
		if th.level != 0 {
			m.levels[th.name] = th.level
		}
	}
}

// loadManifest reads the manifest in dir, returning an empty manifest if
// none exists yet.
func loadManifest(fsys vfs.FS, dir string) (*manifest, error) {
	m := &manifest{nextFileNum: 1, nextSeq: 1}
	data, err := fsys.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		return m, nil
	}
	if err != nil {
		return nil, fmt.Errorf("lsm: open manifest: %w", err)
	}

	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "" || strings.HasPrefix(line, "#"):
		case strings.HasPrefix(line, "next-file "):
			v, err := strconv.ParseUint(strings.TrimPrefix(line, "next-file "), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("lsm: manifest next-file: %w", err)
			}
			m.nextFileNum = v
		case strings.HasPrefix(line, "next-seq "):
			v, err := strconv.ParseUint(strings.TrimPrefix(line, "next-seq "), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("lsm: manifest next-seq: %w", err)
			}
			m.nextSeq = v
		case strings.HasPrefix(line, "table "):
			m.tables = append(m.tables, strings.TrimPrefix(line, "table "))
		case strings.HasPrefix(line, "level "):
			fields := strings.Fields(strings.TrimPrefix(line, "level "))
			if len(fields) != 2 {
				return nil, fmt.Errorf("lsm: manifest level: want 2 fields, got %q", line)
			}
			lv, err := strconv.Atoi(fields[1])
			if err != nil || lv < 0 {
				return nil, fmt.Errorf("lsm: manifest level: bad value %q", fields[1])
			}
			if m.levels == nil {
				m.levels = make(map[string]int)
			}
			m.levels[fields[0]] = lv
		default:
			// The bounds and sketch lines of older builds among them: a
			// directory this build cannot read.
			return nil, fmt.Errorf("lsm: manifest: unrecognized line %q: %w", line, ErrCorrupt)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("lsm: read manifest: %w", err)
	}
	return m, nil
}

// save atomically persists the manifest into dir through fsys: write a
// temp file, fsync it, rename over the live name, fsync the directory. A
// failure anywhere means the on-disk manifest cannot be trusted to match
// the in-memory table set; callers committing a table-set change must
// treat it as a durability failure.
func (m *manifest) save(fsys vfs.FS, dir string) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# lsm manifest\nnext-file %d\nnext-seq %d\n", m.nextFileNum, m.nextSeq)
	for _, t := range m.tables {
		fmt.Fprintf(&b, "table %s\n", t)
		if lv, ok := m.levels[t]; ok {
			fmt.Fprintf(&b, "level %s %d\n", t, lv)
		}
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("lsm: write manifest: %w", err)
	}
	if _, err := f.Write([]byte(b.String())); err != nil {
		f.Close()
		return fmt.Errorf("lsm: write manifest: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("lsm: sync manifest: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("lsm: close manifest: %w", err)
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, manifestName)); err != nil {
		return fmt.Errorf("lsm: rename manifest: %w", err)
	}
	// The rename is only durable once the directory entry is flushed; a
	// compaction swap that skipped this could survive a crash with the old
	// manifest naming deleted tables. (Platforms that refuse to fsync
	// directories degrade to no-op inside SyncDir rather than failing the
	// commit.)
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("lsm: sync dir: %w", err)
	}
	return nil
}
