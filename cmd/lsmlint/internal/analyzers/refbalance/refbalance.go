// Package refbalance proves, per function, that every acquired reference —
// a pinned read view, a snapshot, an iterator release func, a read
// state, a Ref'd handle, a pinned cache block — is released on every
// control-flow path, including early error returns. A missed unpin never
// crashes: it pins an immutable view forever, so obsolete sstables survive
// compaction and disk usage creeps until an operator notices. That failure
// mode is exactly the kind a path-sensitive check catches and a reviewer
// eventually misses.
//
// The analysis walks the lintcore CFG from each acquisition site. A path is
// balanced when it hits a release call or a defer that releases; a path
// that hands the resource to another function, stores it, or returns it
// transfers ownership and is exempt — except a call the spec lists as
// borrowing, which takes a reference of its own and leaves the caller's:
// publishing a block with Add is one, so the writer's Alloc → copy → Add
// still owes its Release; a path that reaches the function exit
// with the resource still held is reported. The failure side of an
// acquisition's own guard is exempt too — the body of the
// `if err != nil { ... }` immediately after it, and everything outside the
// body of the `if v, ok := acquire(); ok { ... }` it initializes: there the
// acquisition failed and there is nothing to release.
package refbalance

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/cmd/lsmlint/internal/lintcore"
)

// spec describes one acquire/release pairing the engine uses.
type spec struct {
	call    string // callee name of the acquiring call
	result  int    // index of the resource in the call's results
	method  string // release = resource.<method>()
	callRes bool   // release = resource() — the resource is a release func
	what    string // human name for diagnostics
	release string // human description of the release action
	borrows string // callee that takes the resource without taking it over
}

var specs = []spec{
	{call: "pinView", result: 0, method: "unpin", what: "view pin", release: "unpin"},
	{call: "Snapshot", result: 0, method: "Release", what: "snapshot", release: "Release"},
	{call: "SnapshotView", result: 0, method: "Release", what: "snapshot", release: "Release"},
	{call: "NewIterator", result: 1, callRes: true, what: "iterator release func", release: "calling it"},
	{call: "acquireSnapshot", result: 0, method: "release", what: "read state", release: "release"},
	{call: "Ref", result: 0, method: "Unref", what: "ref", release: "Unref"},
	// Cache block pins: a leaked one is never recycled, so a leak on a hot
	// path quietly turns every cold read back into a 4 KiB allocation.
	// Add publishes a block under a reference of the cache's own; the pin
	// that filled it is still the filler's to release or hand on.
	{call: "readBlock", result: 0, method: "Release", what: "block pin", release: "Release"},
	{call: "loadBlock", result: 0, method: "Release", what: "block pin", release: "Release"},
	{call: "GetEntry", result: 1, method: "Release", what: "block pin", release: "Release"},
	{call: "GetEntryHashed", result: 1, method: "Release", what: "block pin", release: "Release"},
	{call: "Get", result: 0, method: "Release", what: "block pin", release: "Release"},
	{call: "Peek", result: 0, method: "Release", what: "block pin", release: "Release"},
	{call: "Alloc", result: 0, method: "Release", what: "block pin", release: "Release", borrows: "Add"},
	// The cluster router's pooled quorum op: a caller reference that is
	// never dropped keeps the op — and the deadline timer it holds — out of
	// the pool for good.
	{call: "acquireOp", result: 0, method: "release", what: "quorum op", release: "release"},
}

var Analyzer = &lintcore.Analyzer{
	Name: "refbalance",
	Doc:  "every view pin / snapshot / table ref is released on all paths, including early error returns",
	Run:  run,
}

func run(pass *lintcore.Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

func checkFunc(pass *lintcore.Pass, fd *ast.FuncDecl) {
	cfg := lintcore.BuildCFG(fd.Body)
	if cfg == nil {
		return // uses goto; not modeled
	}
	parents := buildParents(fd.Body)
	for _, blk := range cfg.Blocks {
		for i, n := range blk.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok {
				continue
			}
			name := calleeName(call)
			for _, sp := range specs {
				if sp.call != name || sp.result >= len(as.Lhs) {
					continue
				}
				id, ok := as.Lhs[sp.result].(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := pass.Info.Defs[id]
				if obj == nil {
					obj = pass.Info.Uses[id]
				}
				if obj == nil || !resourceTypeMatches(pass, obj, sp) {
					continue
				}
				c := &checker{
					pass:    pass,
					cfg:     cfg,
					obj:     obj,
					sp:      sp,
					parents: parents,
					visited: map[visitKey]bool{},
				}
				// Start where the acquisition is known to have succeeded.
				from, at := blk, i+1
				if at == len(blk.Nodes)-1 && len(blk.Succs) == 2 {
					switch cond := blk.Nodes[at]; {
					case okGuard(pass, as, id, parents) == cond:
						from, at = blk.Succs[0], 0 // the body of `if v, ok := f(); ok`
					case errGuard(pass, as, id, parents) == cond:
						from, at = blk.Succs[1], 0 // past the body of `if err != nil`
					}
				}
				c.walk(from, at, false)
				if c.leak {
					pass.Reportf(as.Pos(),
						"%s %q acquired from %s is not released on every path; release with %s before each return, or defer it",
						sp.what, id.Name, sp.call, sp.release)
				}
			}
		}
	}
}

func calleeName(call *ast.CallExpr) string {
	switch f := call.Fun.(type) {
	case *ast.Ident:
		return f.Name
	case *ast.SelectorExpr:
		return f.Sel.Name
	}
	return ""
}

// resourceTypeMatches verifies the acquired value really is the kind of
// resource the spec describes, so an unrelated function that happens to be
// named Snapshot or Ref does not trip the check.
func resourceTypeMatches(pass *lintcore.Pass, obj types.Object, sp spec) bool {
	t := obj.Type()
	switch {
	case sp.method != "":
		o, _, _ := types.LookupFieldOrMethod(t, true, pass.Pkg, sp.method)
		_, ok := o.(*types.Func)
		return ok
	case sp.callRes:
		sig, ok := t.Underlying().(*types.Signature)
		return ok && sig.Params().Len() == 0
	default:
		return true
	}
}

// errGuard returns the condition of the `if err != nil { ... }` guard
// directly after the acquisition, or nil: its body runs only when the
// acquisition failed. Only the statement immediately after the acquisition
// counts — a later `if err != nil` (after err was reassigned by other
// work) still owes a release.
func errGuard(pass *lintcore.Pass, as *ast.AssignStmt, resource *ast.Ident, parents map[ast.Node]ast.Node) ast.Expr {
	errObj := resultOfType(pass, as, resource, types.Universe.Lookup("error").Type())
	if errObj == nil {
		return nil
	}
	ifs, ok := nextSibling(as, parents).(*ast.IfStmt)
	if !ok || ifs.Init != nil {
		return nil
	}
	bin, ok := ifs.Cond.(*ast.BinaryExpr)
	if !ok || bin.Op != token.NEQ {
		return nil
	}
	if !isObjIdent(pass, bin.X, errObj) && !isObjIdent(pass, bin.Y, errObj) {
		return nil
	}
	return ifs.Cond
}

// okGuard returns the condition of `if v, ok := acquire(); ok { ... }`
// when the acquisition is that statement's init, or nil: v is held only
// inside the body.
func okGuard(pass *lintcore.Pass, as *ast.AssignStmt, resource *ast.Ident, parents map[ast.Node]ast.Node) ast.Expr {
	okObj := resultOfType(pass, as, resource, types.Typ[types.Bool])
	ifs, isIf := parents[as].(*ast.IfStmt)
	if okObj == nil || !isIf || ifs.Init != as || !isObjIdent(pass, ifs.Cond, okObj) {
		return nil
	}
	return ifs.Cond
}

// resultOfType returns the object of the acquiring assignment's result of
// type t (its error, or its comma-ok bool), excluding the resource itself.
func resultOfType(pass *lintcore.Pass, as *ast.AssignStmt, resource *ast.Ident, t types.Type) types.Object {
	for _, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id == resource || id.Name == "_" {
			continue
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			obj = pass.Info.Uses[id]
		}
		if obj != nil && types.Identical(obj.Type(), t) {
			return obj
		}
	}
	return nil
}

func isObjIdent(pass *lintcore.Pass, e ast.Expr, obj types.Object) bool {
	id, ok := e.(*ast.Ident)
	return ok && pass.Info.Uses[id] == obj
}

// nextSibling returns the statement following s in its enclosing list.
func nextSibling(s ast.Stmt, parents map[ast.Node]ast.Node) ast.Stmt {
	var list []ast.Stmt
	switch p := parents[s].(type) {
	case *ast.BlockStmt:
		list = p.List
	case *ast.CaseClause:
		list = p.Body
	case *ast.CommClause:
		list = p.Body
	default:
		return nil
	}
	for i, st := range list {
		if st == s && i+1 < len(list) {
			return list[i+1]
		}
	}
	return nil
}

func buildParents(body *ast.BlockStmt) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if len(stack) > 0 {
			parents[n] = stack[len(stack)-1]
		}
		stack = append(stack, n)
		return true
	})
	return parents
}

type visitKey struct {
	block        int
	deferCovered bool
}

type checker struct {
	pass    *lintcore.Pass
	cfg     *lintcore.CFG
	obj     types.Object
	sp      spec
	parents map[ast.Node]ast.Node
	visited map[visitKey]bool
	leak    bool
}

// walk explores every path from (blk, start). It stops a path when the
// resource is released, transferred, or the function exits; exit without a
// release (and no covering defer) sets leak.
func (c *checker) walk(blk *lintcore.Block, start int, deferCovered bool) {
	if c.leak {
		return
	}
	for i := start; i < len(blk.Nodes); i++ {
		n := blk.Nodes[i]
		if ds, ok := n.(*ast.DeferStmt); ok {
			if c.releaseIn(ds, true) {
				deferCovered = true
			} else if c.usesObj(ds) {
				return // deferred hand-off to a helper: ownership transferred
			}
			continue
		}
		if rs, ok := n.(*ast.ReturnStmt); ok {
			if c.usesObj(rs) {
				return // resource returned to caller
			}
			if !deferCovered {
				c.leak = true
			}
			return
		}
		if c.releaseIn(n, false) {
			return // balanced on this path
		}
		if c.escapes(n) {
			return // stored, passed, or captured: ownership transferred
		}
	}
	for _, s := range blk.Succs {
		switch s {
		case c.cfg.Exit:
			if !deferCovered {
				c.leak = true
				return
			}
		case c.cfg.PanicExit:
			// A ref held across a crash is not a leak worth reporting.
		default:
			k := visitKey{s.Index, deferCovered}
			if !c.visited[k] {
				c.visited[k] = true
				c.walk(s, 0, deferCovered)
			}
		}
	}
}

// releaseIn reports whether n contains a release of the resource. Function
// literals are descended into only under a defer (defer func() { v.unpin()
// }() releases at return; a plain closure releases whenever someone calls
// it, which this pass cannot see).
func (c *checker) releaseIn(n ast.Node, inDefer bool) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok && !inDefer {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok && c.isRelease(call) {
			found = true
			return false
		}
		return true
	})
	return found
}

func (c *checker) isRelease(call *ast.CallExpr) bool {
	switch {
	case c.sp.method != "":
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != c.sp.method {
			return false
		}
		return isObjIdent(c.pass, sel.X, c.obj)
	case c.sp.callRes:
		return isObjIdent(c.pass, call.Fun, c.obj)
	}
	return false
}

func (c *checker) usesObj(n ast.Node) bool {
	used := false
	ast.Inspect(n, func(m ast.Node) bool {
		if used {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && c.pass.Info.Uses[id] == c.obj {
			used = true
		}
		return !used
	})
	return used
}

// escapes reports whether n transfers ownership of the resource: passes it
// to a call, assigns it somewhere, takes its address, captures it in a
// closure. Plain uses — field/method access, nil comparison, appearing bare
// as a loop head or condition — keep ownership here.
func (c *checker) escapes(n ast.Node) bool {
	esc := false
	ast.Inspect(n, func(m ast.Node) bool {
		if esc {
			return false
		}
		id, ok := m.(*ast.Ident)
		if !ok || c.pass.Info.Uses[id] != c.obj {
			return true
		}
		if ast.Node(id) == n {
			return true // bare condition / range-head node
		}
		switch p := c.parents[id].(type) {
		case *ast.SelectorExpr:
			if p.X == id {
				return true // v.field, v.method(...)
			}
		case *ast.BinaryExpr:
			if p.Op == token.EQL || p.Op == token.NEQ {
				return true // v == nil, v != old
			}
		case *ast.CallExpr:
			if c.sp.borrows != "" && calleeName(p) == c.sp.borrows {
				return true // c.Add(v, ...): the callee takes its own reference
			}
		}
		esc = true
		return false
	})
	return esc
}
