package compaction

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/keyset"
)

// This file implements a small text format for problem instances so
// real-world sstable inventories can be scored offline:
//
//	# one table per line; tokens are keys ("17") or inclusive
//	# ranges ("100-199"); blank lines and #-comments are ignored
//	1 2 3 5
//	1-4
//	3-5
//
// WriteInstance emits the same format with runs compressed into ranges, so
// parse(write(x)) == x.

// ParseInstance reads an instance in the text format above.
func ParseInstance(r io.Reader) (*Instance, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	var sets []keyset.Set
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var keys []uint64
		for _, tok := range strings.Fields(line) {
			lo, hi, err := parseToken(tok)
			if err != nil {
				return nil, fmt.Errorf("compaction: line %d: %w", lineNo, err)
			}
			if hi-lo > 100_000_000 {
				return nil, fmt.Errorf("compaction: line %d: range %s too large", lineNo, tok)
			}
			for k := lo; ; k++ {
				keys = append(keys, k)
				if k == hi {
					break
				}
			}
		}
		if len(keys) == 0 {
			return nil, fmt.Errorf("compaction: line %d: empty table", lineNo)
		}
		sets = append(sets, keyset.New(keys...))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("compaction: parse instance: %w", err)
	}
	if len(sets) == 0 {
		return nil, fmt.Errorf("compaction: instance has no tables")
	}
	return NewInstance(sets...), nil
}

func parseToken(tok string) (lo, hi uint64, err error) {
	if i := strings.IndexByte(tok, '-'); i > 0 {
		lo, err = strconv.ParseUint(tok[:i], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad range %q: %w", tok, err)
		}
		hi, err = strconv.ParseUint(tok[i+1:], 10, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad range %q: %w", tok, err)
		}
		if hi < lo {
			return 0, 0, fmt.Errorf("descending range %q", tok)
		}
		return lo, hi, nil
	}
	lo, err = strconv.ParseUint(tok, 10, 64)
	if err != nil {
		return 0, 0, fmt.Errorf("bad key %q: %w", tok, err)
	}
	return lo, lo, nil
}

// WriteInstance emits inst in the text format, one table per line with
// consecutive keys compressed into ranges.
func WriteInstance(w io.Writer, inst *Instance) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# compaction instance: %d tables, %d distinct keys\n", inst.N(), inst.Universe().Len())
	for _, t := range inst.Tables() {
		keys := t.Set.Keys()
		for i := 0; i < len(keys); {
			j := i
			for j+1 < len(keys) && keys[j+1] == keys[j]+1 {
				j++
			}
			if i > 0 {
				bw.WriteByte(' ')
			}
			if j == i {
				fmt.Fprintf(bw, "%d", keys[i])
			} else {
				fmt.Fprintf(bw, "%d-%d", keys[i], keys[j])
			}
			i = j + 1
		}
		bw.WriteByte('\n')
	}
	return bw.Flush()
}
