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

// manifest records the durable state of the store: the next file number,
// the next sequence number and the list of live sstables, newest first, with
// the level of each table not at level 0. A table's bounds and key sketch
// live in its own file. The manifest is rewritten atomically
// (vfs.WriteFileAtomic) on every change, the classic small-manifest design.
type manifest struct {
	nextFileNum uint64
	nextSeq     uint64
	// tables and levels are the table list as loaded, for Open and
	// removeOrphans; save writes the list from the set it commits.
	tables []string // sstable file names, newest first
	levels map[string]int
}

const manifestName = "MANIFEST"

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

// save atomically persists the manifest naming tables, newest first, into
// dir through fsys. A failure anywhere means the on-disk manifest cannot be
// trusted to match any in-memory table set; DB.setTablesLocked, its one
// caller, treats it as a durability failure.
func (m *manifest) save(fsys vfs.FS, dir string, tables []*tableHandle) error {
	var b strings.Builder
	fmt.Fprintf(&b, "# lsm manifest\nnext-file %d\nnext-seq %d\n", m.nextFileNum, m.nextSeq)
	for _, th := range tables {
		fmt.Fprintf(&b, "table %s\n", th.name)
		if th.level != 0 {
			fmt.Fprintf(&b, "level %s %d\n", th.name, th.level)
		}
	}
	if err := vfs.WriteFileAtomic(fsys, filepath.Join(dir, manifestName), []byte(b.String())); err != nil {
		return fmt.Errorf("lsm: write manifest: %w", err)
	}
	return nil
}
