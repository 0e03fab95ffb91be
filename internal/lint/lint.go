// Package lint is graphitti's repo-invariant analyzer suite.
//
// The store's anomaly-freedom and durability guarantees rest on code
// conventions that reviewers used to enforce by memory: error envelopes
// always carry the request ID, metric families register exactly once at
// package init, sentinel errors stay errors.Is-matchable, *Locked methods
// run under the caller's lock, every file operation on the durability path
// is faultfs-mediated, and context plumbing never silently detaches. Each
// analyzer in this package encodes one of those invariants as a mechanical
// check over the fully type-checked module, so a violation fails CI instead
// of waiting for the next incident.
//
// The driver is dependency-free: packages are loaded with `go list
// -deps -export -json` and type-checked with the standard library's
// go/parser + go/types against compiler export data, matching the module's
// zero-dependency stance. See cmd/graphitti-lint for the CLI and
// docs/LINTING.md for the rule catalogue.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"
)

// Finding is one rule violation at one source position.
type Finding struct {
	Pos     token.Position `json:"-"`
	File    string         `json:"file"`
	Line    int            `json:"line"`
	Column  int            `json:"column"`
	Rule    string         `json:"rule"`
	Message string         `json:"message"`
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Column, f.Rule, f.Message)
}

// Analyzer is one registered invariant check. Run receives a fully
// type-checked package and returns its findings; the driver handles
// enable/disable selection, //lint:ignore suppression, sorting and
// output formatting.
type Analyzer struct {
	// Name is the rule identifier used in output ([name]), in
	// -enable/-disable lists and in //lint:ignore directives.
	Name string
	// Doc is a one-line description of the invariant the rule guards.
	Doc string
	// Default reports whether the rule runs when no -enable list is given.
	Default bool
	// Run analyzes one package.
	Run func(p *Package) []Finding
}

// Analyzers returns the full rule table in stable order. Every analyzer
// must have a failing and a clean fixture under testdata/mod/ — the
// meta-test in lint_test.go enforces that against this registry.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		analyzerJSONError,
		analyzerMetricReg,
		analyzerErrWrap,
		analyzerLockedDisc,
		analyzerRawFileOp,
		analyzerCtxFlow,
	}
}

// Selection resolves -enable / -disable comma lists against the registry.
// enable, when non-empty, is an exclusive allowlist; disable always
// subtracts. Unknown rule names are an error so a typo cannot silently
// turn a gate off.
func Selection(enable, disable string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range Analyzers() {
		byName[a.Name] = a
	}
	split := func(s string) ([]string, error) {
		var out []string
		for _, part := range strings.Split(s, ",") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			if _, ok := byName[part]; !ok {
				return nil, fmt.Errorf("lint: unknown rule %q", part)
			}
			out = append(out, part)
		}
		return out, nil
	}
	on := make(map[string]bool)
	if enable != "" {
		names, err := split(enable)
		if err != nil {
			return nil, err
		}
		for _, n := range names {
			on[n] = true
		}
	} else {
		for _, a := range Analyzers() {
			on[a.Name] = a.Default
		}
	}
	names, err := split(disable)
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		on[n] = false
	}
	var sel []*Analyzer
	for _, a := range Analyzers() {
		if on[a.Name] {
			sel = append(sel, a)
		}
	}
	return sel, nil
}

// ignoreRe matches the suppression directive:
//
//	//lint:ignore rule[,rule...] reason
//
// The directive suppresses matching findings on its own line and on the
// line immediately below, so it works both trailing a statement and on a
// line of its own above one. The reason is mandatory — a directive without
// one is itself reported, so suppressions stay auditable.
var ignoreRe = regexp.MustCompile(`^//lint:ignore\s+(\S+)(?:\s+(.*))?$`)

type ignoreDirective struct {
	pos    token.Position
	rules  map[string]bool
	reason string
}

func collectIgnores(p *Package) []ignoreDirective {
	var out []ignoreDirective
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := ignoreRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				d := ignoreDirective{
					pos:    p.Fset.Position(c.Pos()),
					rules:  make(map[string]bool),
					reason: strings.TrimSpace(m[2]),
				}
				for _, r := range strings.Split(m[1], ",") {
					if r = strings.TrimSpace(r); r != "" {
						d.rules[r] = true
					}
				}
				out = append(out, d)
			}
		}
	}
	return out
}

// RunAll runs the selected analyzers over every package and returns the
// surviving findings in deterministic (file, line, column, rule) order.
// //lint:ignore directives are applied here; malformed directives (no
// reason, or a rule name the registry does not know) become findings of
// the synthetic rule "directive".
func RunAll(pkgs []*Package, sel []*Analyzer) []Finding {
	known := make(map[string]bool)
	for _, a := range Analyzers() {
		known[a.Name] = true
	}
	var all []Finding
	for _, p := range pkgs {
		ignores := collectIgnores(p)
		for _, d := range ignores {
			if d.reason == "" {
				all = append(all, findingAt(d.pos, "directive",
					"//lint:ignore needs a reason: //lint:ignore rule reason"))
			}
			for r := range d.rules {
				if !known[r] {
					all = append(all, findingAt(d.pos, "directive",
						fmt.Sprintf("//lint:ignore names unknown rule %q", r)))
				}
			}
		}
		suppressed := func(f Finding) bool {
			for _, d := range ignores {
				if d.pos.Filename != f.File || !d.rules[f.Rule] {
					continue
				}
				if f.Line == d.pos.Line || f.Line == d.pos.Line+1 {
					return true
				}
			}
			return false
		}
		for _, a := range sel {
			for _, f := range a.Run(p) {
				if !suppressed(f) {
					all = append(all, f)
				}
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return a.Rule < b.Rule
	})
	return all
}

func findingAt(pos token.Position, rule, msg string) Finding {
	return Finding{Pos: pos, File: pos.Filename, Line: pos.Line, Column: pos.Column, Rule: rule, Message: msg}
}

func (p *Package) finding(pos token.Pos, rule, format string, args ...any) Finding {
	return findingAt(p.Fset.Position(pos), rule, fmt.Sprintf(format, args...))
}

// pkgNamed reports whether the package's name matches any of names.
// Applicability is keyed on the package name (httpapi, wal, durable,
// shard, obs)
// rather than the import path so the testdata fixture modules exercise the
// same code paths as the real tree.
func (p *Package) pkgNamed(names ...string) bool {
	for _, n := range names {
		if p.Pkg.Name() == n {
			return true
		}
	}
	return false
}

// eachFuncDecl walks every function declaration in the package.
func (p *Package) eachFuncDecl(fn func(*ast.FuncDecl)) {
	for _, f := range p.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				fn(fd)
			}
		}
	}
}
