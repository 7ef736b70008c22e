// Package lockheld flags blocking operations — fsync, time.Sleep, channel
// sends/receives, blocking selects, network I/O — performed while db.mu or
// applyMu is held. Those two locks sit on the engine's read/apply hot
// paths (PRs 1–2 moved every fsync off them; PR 5 made reads lock-free),
// so one blocking call slipped under them silently reintroduces the
// 220ms-p99 stalls the refactors removed. The analysis is lexical and
// intra-procedural: it tracks Lock/Unlock pairs of fields named mu and
// applyMu through straight-line code and branches, treating a deferred
// Unlock as held-until-return. sync.Cond.Wait is exempt (it releases the
// lock internally), as is a select with a default clause (non-blocking by
// construction).
package lockheld

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/cmd/lsmlint/internal/lintcore"
)

// trackedFields are the mutex field names whose critical sections must
// stay non-blocking.
var trackedFields = map[string]bool{
	"mu":      true,
	"applyMu": true,
}

var Analyzer = &lintcore.Analyzer{
	Name: "lockheld",
	Doc:  "no fsync, sleep, channel op, or network I/O while db.mu or applyMu is held",
	Run:  run,
}

func run(pass *lintcore.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			w := &walker{pass: pass}
			w.stmts(fd.Body.List, map[string]token.Pos{})
		}
	}
	return nil
}

type walker struct {
	pass *lintcore.Pass
}

// lockKey renders the receiver chain of a mutex operand ("db.mu",
// "s.applyMu") when its final field is tracked; "" otherwise.
func lockKey(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		if trackedFields[e.Name] {
			return e.Name
		}
	case *ast.SelectorExpr:
		if !trackedFields[e.Sel.Name] {
			return ""
		}
		if base, ok := e.X.(*ast.Ident); ok {
			return base.Name + "." + e.Sel.Name
		}
	}
	return ""
}

// lockOp decodes a statement of the form <chain>.Lock()/RLock()/Unlock()/
// RUnlock() on a tracked mutex, returning the key and whether it acquires.
func lockOp(s ast.Stmt) (key string, acquire, ok bool) {
	es, isExpr := s.(*ast.ExprStmt)
	if !isExpr {
		return "", false, false
	}
	call, isCall := es.X.(*ast.CallExpr)
	if !isCall {
		return "", false, false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	key = lockKey(sel.X)
	if key == "" {
		return "", false, false
	}
	return key, acquire, true
}

// deferredUnlock reports the key of a `defer <chain>.Unlock()` statement.
func deferredUnlock(s ast.Stmt) (string, bool) {
	ds, ok := s.(*ast.DeferStmt)
	if !ok {
		return "", false
	}
	sel, ok := ds.Call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Unlock" && sel.Sel.Name != "RUnlock") {
		return "", false
	}
	key := lockKey(sel.X)
	return key, key != ""
}

// stmts walks a statement list, threading the held-lock set through it.
// Branch bodies get a copy of the set: a lock toggled inside a branch does
// not leak into the statements after it (a deliberate approximation — the
// repo's critical sections are either straight-line or defer-unlocked).
func (w *walker) stmts(list []ast.Stmt, held map[string]token.Pos) {
	for _, s := range list {
		if key, acquire, ok := lockOp(s); ok {
			if acquire {
				held[key] = s.Pos()
			} else {
				delete(held, key)
			}
			continue
		}
		if _, ok := deferredUnlock(s); ok {
			// The lock stays held until return; keep flagging.
			continue
		}
		w.stmt(s, held)
	}
}

func (w *walker) stmt(s ast.Stmt, held map[string]token.Pos) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		w.stmts(s.List, clone(held))
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		w.scanExpr(s.Cond, held)
		w.stmts(s.Body.List, clone(held))
		if s.Else != nil {
			w.stmt(s.Else, clone(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Cond != nil {
			w.scanExpr(s.Cond, held)
		}
		if s.Post != nil {
			w.stmt(s.Post, clone(held))
		}
		w.stmts(s.Body.List, clone(held))
	case *ast.RangeStmt:
		if len(held) > 0 {
			if tv, ok := w.pass.Info.Types[s.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					w.report(s.Pos(), "range over channel", held)
				}
			}
		}
		w.scanExpr(s.X, held)
		w.stmts(s.Body.List, clone(held))
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init, held)
		}
		if s.Tag != nil {
			w.scanExpr(s.Tag, held)
		}
		for _, cc := range s.Body.List {
			w.stmts(cc.(*ast.CaseClause).Body, clone(held))
		}
	case *ast.TypeSwitchStmt:
		for _, cc := range s.Body.List {
			w.stmts(cc.(*ast.CaseClause).Body, clone(held))
		}
	case *ast.SelectStmt:
		if len(held) > 0 && !hasDefault(s) {
			w.report(s.Pos(), "blocking select", held)
		}
		for _, cc := range s.Body.List {
			w.stmts(cc.(*ast.CommClause).Body, clone(held))
		}
	case *ast.SendStmt:
		if len(held) > 0 {
			w.report(s.Pos(), "channel send", held)
		}
	case *ast.GoStmt:
		// Runs elsewhere; the spawned goroutine does not hold the lock.
	case *ast.DeferStmt:
		// Runs at return; by then non-deferred unlocks have happened and
		// deferred ones run in LIFO order — out of scope for a lexical
		// pass.
	case *ast.ExprStmt:
		w.scanExpr(s.X, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.scanExpr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.scanExpr(e, held)
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v, held)
					}
				}
			}
		}
	}
}

// scanExpr flags blocking operations inside an expression evaluated while
// locks are held: receives, fsyncs, sleeps, and network calls. Function
// literals are not descended into — they execute when called, not here.
func (w *walker) scanExpr(e ast.Expr, held map[string]token.Pos) {
	if e == nil || len(held) == 0 {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				w.report(n.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			w.checkCall(n, held)
		}
		return true
	})
}

func (w *walker) checkCall(call *ast.CallExpr, held map[string]token.Pos) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name

	// fsync: any Sync/SyncDir method call. The vfs.File and vfs.FS
	// surfaces both use these names, as does *os.File.
	if name == "Sync" || name == "SyncDir" {
		w.report(call.Pos(), "fsync ("+name+")", held)
		return
	}

	if id, ok := sel.X.(*ast.Ident); ok {
		if pn, ok := w.pass.Info.Uses[id].(*types.PkgName); ok {
			switch pn.Imported().Path() {
			case "time":
				if name == "Sleep" {
					w.report(call.Pos(), "time.Sleep", held)
				}
			case "net":
				// Only the operations that wait on the network: dialing and
				// accepting. Helpers like JoinHostPort are pure.
				if strings.HasPrefix(name, "Dial") || strings.HasPrefix(name, "Listen") {
					w.report(call.Pos(), "net."+name+" network I/O", held)
				}
			}
			return
		}
	}

	// A dial one call down from net.Dial — a dial function field or a
	// method (p.dial, rt.dial) — waits on the network as well. The
	// analysis does not follow calls, so it goes by the name.
	if strings.HasPrefix(name, "dial") || strings.HasPrefix(name, "Dial") {
		w.report(call.Pos(), name+" network I/O", held)
		return
	}

	// Blocking methods on net types (conn.Read, conn.Write,
	// listener.Accept). Close is deliberately excluded: closing a
	// connection is how pending I/O gets *unblocked*, and poisoning a dead
	// conn under the lock is the established pattern in kvnet. Accessors
	// like net.Error.Timeout never touch the wire.
	switch name {
	case "Read", "Write", "Accept", "ReadFrom", "WriteTo":
	default:
		return
	}
	if selInfo, ok := w.pass.Info.Selections[sel]; ok {
		recv := selInfo.Recv()
		if isNetType(recv) {
			w.report(call.Pos(), "network I/O (net "+name+")", held)
		}
	}
}

// isNetType reports whether t is declared in package net, directly or
// behind a pointer — including interface types like net.Conn.
func isNetType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "net"
}

func hasDefault(s *ast.SelectStmt) bool {
	for _, cc := range s.Body.List {
		if cc.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

func clone(held map[string]token.Pos) map[string]token.Pos {
	out := make(map[string]token.Pos, len(held))
	for k, v := range held {
		out[k] = v
	}
	return out
}

func (w *walker) report(pos token.Pos, what string, held map[string]token.Pos) {
	keys := make([]string, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.pass.Reportf(pos, "%s while %s is held; blocking under this lock stalls the write/apply hot path", what, strings.Join(keys, " and "))
}
