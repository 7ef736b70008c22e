// Package apiboundary enforces the public-API façade: binaries (cmd/) and
// examples build against the public kv package — plus the paper's model
// of compaction, which has no kv façade — never against the engine
// internals kv wraps. It replaces the CI grep step with a real analyzer
// (kv.TestPublicAPIBoundary remains as the in-tree twin); unlike the
// grep, it is allowlist-based, so a newly added internal package is
// boundary-protected by default.
package apiboundary

import (
	"strings"

	"repro/cmd/lsmlint/internal/lintcore"
)

// allowedSuffixes is the exact set of module packages a binary or example
// may import, relative to the module root. Everything else in the module —
// in particular the engine internals internal/{lsm,store,kvnet,wal,
// sstable,memtable,vfs,...} — is reachable only through the kv façade.
var allowedSuffixes = map[string]bool{
	"kv": true,
	// The paper's model of compaction and its evaluation, exercised
	// directly by compactsim. The evaluation also drives the engine, but
	// only through kv (its engine matrix), so it reaches nothing kv hides.
	"internal/compaction":  true,
	"internal/experiments": true,
	"internal/ycsb":        true,
	"internal/keyset":      true,
	"internal/cluster":     true,
	// The filesystem seam: tools route file I/O through vfs.Default so
	// vfsdirect holds for them too. It exposes no engine state.
	"internal/vfs": true,
}

var Analyzer = &lintcore.Analyzer{
	Name: "apiboundary",
	Doc:  "cmd/ and examples/ import the public kv façade (and the paper's model of compaction), never engine internals",
	Run:  run,
}

func run(pass *lintcore.Pass) error {
	if pass.Module == "" {
		return nil
	}
	ip := pass.ImportPath
	mod := pass.Module + "/"
	if !strings.HasPrefix(ip, mod+"cmd/") && !strings.HasPrefix(ip, mod+"examples/") {
		return nil
	}
	// A tool's own subtree is its implementation, not a boundary
	// crossing: cmd/lsmlint may import cmd/lsmlint/internal/... freely.
	rel := strings.TrimPrefix(ip, mod) // "cmd/<tool>[/...]"
	parts := strings.SplitN(rel, "/", 3)
	ownSubtree := mod + parts[0] + "/" + parts[1]
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path := strings.Trim(imp.Path.Value, `"`)
			if !strings.HasPrefix(path, mod) {
				continue
			}
			if allowedSuffixes[strings.TrimPrefix(path, mod)] {
				continue
			}
			if path == ownSubtree || strings.HasPrefix(path, ownSubtree+"/") {
				continue
			}
			pass.Reportf(imp.Pos(),
				"%s may not import %s; binaries and examples build against the public kv façade only",
				ip, path)
		}
	}
	return nil
}
