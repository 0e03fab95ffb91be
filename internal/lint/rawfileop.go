package lint

import (
	"go/ast"
	"go/types"
)

// rawfileop: in the wal, durable and shard packages every file operation
// on the durability path must be mediated by the faultfs injector — that
// is what lets the fault-injection harness prove the ack contract ("committed
// means fsynced") under EIO, ENOSPC and torn writes. A raw os call that
// skips the injector silently removes that operation from fault coverage:
// the harness goes green while the failure path it was guarding goes
// untested.
//
// Flagged: direct calls to the mutating os functions (Create, OpenFile,
// Rename, Remove, RemoveAll, Truncate, WriteFile) and to the mutating
// (*os.File) methods (Write, WriteAt, WriteString, ReadFrom, Sync,
// Truncate), unless the enclosing function is itself a faultfs hook shim —
// recognized, flow-insensitively, by it also calling faultfs.Check or
// Injector.Decide. Read-only operations (os.Open, os.ReadFile, os.Stat,
// Read) are not durability-relevant and stay unrestricted.
var analyzerRawFileOp = &Analyzer{
	Name:    "rawfileop",
	Doc:     "wal/durable/shard file operations must go through faultfs shims so fault injection keeps full coverage",
	Default: true,
	Run:     runRawFileOp,
}

var rawOsFuncs = map[string]bool{
	"Create":    true,
	"OpenFile":  true,
	"Rename":    true,
	"Remove":    true,
	"RemoveAll": true,
	"Truncate":  true,
	"WriteFile": true,
}

var rawFileMethods = map[string]bool{
	"Write":       true,
	"WriteAt":     true,
	"WriteString": true,
	"ReadFrom":    true,
	"Sync":        true,
	"Truncate":    true,
}

// rawFileOp describes a forbidden call, or returns "" if call is benign.
func (p *Package) rawFileOp(call *ast.CallExpr) string {
	fn := p.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "os" {
		return ""
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil {
		if rawOsFuncs[fn.Name()] {
			return "os." + fn.Name()
		}
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok && named.Obj().Name() == "File" && rawFileMethods[fn.Name()] {
		return "(*os.File)." + fn.Name()
	}
	return ""
}

// isFaultfsShim reports whether the function consults the fault injector
// anywhere in its body, which marks it as one of the sanctioned hook shims.
func (p *Package) isFaultfsShim(fd *ast.FuncDecl) bool {
	shim := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if p.calleeFromPkg(call, "faultfs", "Check") || p.calleeFromPkg(call, "faultfs", "Decide") {
				shim = true
				return false
			}
		}
		return !shim
	})
	return shim
}

func runRawFileOp(p *Package) []Finding {
	if !p.pkgNamed("wal", "durable", "shard") {
		return nil
	}
	var out []Finding
	p.eachFuncDecl(func(fd *ast.FuncDecl) {
		if fd.Body == nil {
			return
		}
		var ops []*ast.CallExpr
		var descs []string
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if desc := p.rawFileOp(call); desc != "" {
					ops = append(ops, call)
					descs = append(descs, desc)
				}
			}
			return true
		})
		if len(ops) == 0 || p.isFaultfsShim(fd) {
			return
		}
		for i, call := range ops {
			out = append(out, p.finding(call.Pos(), "rawfileop",
				"raw %s outside a faultfs shim removes this op from fault-injection coverage; consult faultfs.Check first or use an injected helper", descs[i]))
		}
	})
	return out
}
