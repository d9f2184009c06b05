// Package analysis is a small, dependency-free static-analysis framework
// for this repository, plus the project-specific analyzers that keep the
// clue hot path honest. The paper's headline claim — ≈1 memory reference
// per packet on the receiving router (§3, §6) — is a mechanical property
// of the forwarding code: no hidden allocations, no unguarded shared
// state, and no cost-model drift survive contact with it. The analyzers
// enforce exactly those disciplines:
//
//   - hotpath-alloc: functions on the per-packet path (marked
//     //cluevet:hotpath, or seed-named Process/Lookup/walk/... inside the
//     hot packages) must not use fmt, concatenate strings, box values
//     into interfaces, or evaluate allocating composite literals.
//   - lock-discipline: in any struct owning a sync.RWMutex, guarded
//     fields may only be touched with the lock held, every return path
//     must release what it acquired, and lock state may not diverge
//     across branches (the ConcurrentTable.Process early-return shape).
//   - counter-discipline: a function taking a *mem.Counter must charge
//     it (cnt.Add or forwarding the counter to a callee) before its
//     first map or trie-node access, so the paper's memory-reference
//     accounting cannot silently drift.
//   - no-panic-in-lookup: panic is reserved for construction/parse code
//     (New*/Must*/Parse*/... or //cluevet:ctor); the forwarding path
//     must degrade, not crash.
//
// The lock-free core that carries the ≈1-reference property — fastpath's
// RCU atomic-pointer snapshots, the padded sharded telemetry counters
// and packed trie nodes — has invariants a race detector only
// catches when a test happens to interleave badly. Four analyzers make
// them mechanical:
//
//   - rcu-discipline: a value published through an atomic.Pointer[T]
//     is immutable — writes may only target provably fresh copies (the
//     COW patch shape), mutating helpers run only on unpublished values
//     (//cluevet:ctor), and snapshot pointers are never cached in
//     struct fields or package variables.
//   - atomic-mix: a field accessed through sync/atomic anywhere in the
//     package must be accessed atomically everywhere — no mixed plain
//     loads or stores, the race class go vet does not flag.
//   - padding-layout: structs annotated //cluevet:padded keep their
//     concurrently-written fields on distinct 64-byte cache lines,
//     verified from real go/types offsets against a target GOARCH.
//   - goroutine-shutdown: every go statement in the audited packages
//     (Config.GoroutinePackages or //cluevet:goroutines) must be
//     reachable from a shutdown edge — a context, a WaitGroup joined by
//     a Wait-er, a close flag, or a channel receive — so no worker can
//     leak past Drain.
//
// Diagnostics carry positions and severities, and any diagnostic can be
// suppressed by a //cluevet:ignore comment on the same line, on the
// line directly above, or (for multi-line simple statements) on the
// statement's first line. The framework uses only the standard library
// (go/ast, go/parser, go/token, go/types); cmd/cluevet is the driver
// that loads every package in the module and runs the suite.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Severity classifies a diagnostic. The driver exits non-zero on any
// Error; Warnings are informational.
type Severity int

// Severities, in increasing order.
const (
	Warning Severity = iota
	Error
)

// String implements fmt.Stringer.
func (s Severity) String() string {
	if s == Warning {
		return "warning"
	}
	return "error"
}

// Diagnostic is one finding: where, which analyzer, how bad, and what.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Severity Severity
	Message  string
}

// String renders the diagnostic in the classic file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: [%s] %s", d.Pos, d.Severity, d.Analyzer, d.Message)
}

// Config tunes the suite for a code base. The zero Config marks nothing
// hot; DefaultConfig returns this repository's seed marks.
type Config struct {
	// HotNames are function names treated as //cluevet:hotpath without an
	// annotation, but only inside HotPackages.
	HotNames map[string]bool
	// HotPackages are package import paths in which HotNames applies.
	HotPackages map[string]bool
	// GoroutinePackages are package import paths where the
	// goroutine-shutdown analyzer audits every go statement. A package
	// can also opt in from source with a //cluevet:goroutines comment.
	GoroutinePackages map[string]bool
	// TargetArch is the GOARCH whose memory layout padding-layout
	// verifies (the deployment target, not necessarily the build host);
	// empty selects amd64, the 64-byte-cache-line reference target.
	TargetArch string
}

// DefaultConfig seed-marks the forwarding routines of the clue hot path:
// the clue-table Process procedures (§3.1), the engine Lookups, and the
// trie/Patricia walk primitives they resume into (§4).
func DefaultConfig() Config {
	return Config{
		HotNames: map[string]bool{
			"Process":            true,
			"ProcessNoClue":      true,
			"Lookup":             true,
			"LookupFrom":         true,
			"LookupFromWithStop": true,
			"processEntry":       true,
			"walk":               true,
			"runFor":             true,
			"locate":             true,
		},
		HotPackages: map[string]bool{
			"repro/internal/core":      true,
			"repro/internal/lookup":    true,
			"repro/internal/trie":      true,
			"repro/internal/patricia":  true,
			"repro/internal/fib":       true,
			"repro/internal/fastpath":  true,
			"repro/internal/telemetry": true,
			// The churn harness probes visibility on the forwarding hot
			// path while the writer patches snapshots; its loops must
			// face the same allocation gate.
			"repro/internal/churn": true,
			// The binaries run the same forwarding code under flags; a
			// seed-named hot routine added there must face the same gate.
			"repro/cmd/clued":     true,
			"repro/cmd/cluebench": true,
			// The cluster load generator's send loop must stay
			// allocation-free to measure the daemons, not itself.
			"repro/cmd/cluegen": true,
		},
		GoroutinePackages: map[string]bool{
			"repro/cmd/clued": true,
		},
		TargetArch: "amd64",
	}
}

// Analyzer is one named check over a package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{
		HotPathAlloc,
		LockDiscipline,
		CounterDiscipline,
		NoPanicInLookup,
		RCUDiscipline,
		AtomicMix,
		PaddingLayout,
		GoroutineShutdown,
	}
}

// Pass holds one type-checked package under analysis and collects the
// diagnostics the analyzers report against it.
type Pass struct {
	Fset   *token.FileSet
	Files  []*ast.File
	Pkg    *types.Package
	Info   *types.Info
	Config Config

	diags      []Diagnostic
	ignore     map[string]map[int]bool // filename -> suppressed lines
	directives map[*ast.FuncDecl]funcDirectives
}

// NewPass prepares a package for analysis, indexing //cluevet: directive
// comments up front.
func NewPass(fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, cfg Config) *Pass {
	p := &Pass{Fset: fset, Files: files, Pkg: pkg, Info: info, Config: cfg}
	p.ignore = ignoredLines(fset, files)
	p.directives = collectFuncDirectives(files)
	return p
}

// Reportf records a diagnostic at pos unless a //cluevet:ignore comment
// suppresses that line.
func (p *Pass) Reportf(an *Analyzer, pos token.Pos, sev Severity, format string, args ...interface{}) {
	position := p.Fset.Position(pos)
	if lines := p.ignore[position.Filename]; lines[position.Line] {
		return
	}
	p.diags = append(p.diags, Diagnostic{
		Pos:      position,
		Analyzer: an.Name,
		Severity: sev,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostics returns the findings sorted by file, line and column.
func (p *Pass) Diagnostics() []Diagnostic {
	sort.SliceStable(p.diags, func(i, j int) bool {
		a, b := p.diags[i].Pos, p.diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return p.diags
}

// Run executes the given analyzers (nil means All) and returns the
// sorted diagnostics.
func Run(p *Pass, analyzers []*Analyzer) []Diagnostic {
	if analyzers == nil {
		analyzers = All()
	}
	for _, a := range analyzers {
		a.Run(p)
	}
	return p.Diagnostics()
}

// IsHotPath reports whether fn is on the per-packet path: explicitly
// annotated //cluevet:hotpath, or seed-named in a hot package.
func (p *Pass) IsHotPath(fn *ast.FuncDecl) bool {
	if p.directives[fn].hotpath {
		return true
	}
	if p.Pkg == nil || !p.Config.HotPackages[p.Pkg.Path()] {
		return false
	}
	return p.Config.HotNames[fn.Name.Name]
}

// IsConstruction reports whether fn is construction/parse code, where
// panicking on programmer error is accepted: annotated //cluevet:ctor or
// named like a constructor (New*, Must*, Parse*, Compile*, Build*,
// Make*, From*, init).
func (p *Pass) IsConstruction(fn *ast.FuncDecl) bool {
	if p.directives[fn].ctor {
		return true
	}
	return isConstructorName(fn.Name.Name)
}

var constructorPrefixes = []string{"New", "Must", "Parse", "Compile", "Build", "Make", "From"}

func isConstructorName(name string) bool {
	if name == "init" {
		return true
	}
	for _, pre := range constructorPrefixes {
		if len(name) >= len(pre) && name[:len(pre)] == pre {
			return true
		}
	}
	return false
}

// typeOf returns the static type of e, or nil.
func (p *Pass) typeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// isCounterPtr reports whether t is *mem.Counter (matched by package and
// type name, so fixture packages named mem work too).
func isCounterPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Counter" && obj.Pkg() != nil && obj.Pkg().Name() == "mem"
}

// namedFrom unwraps pointers and returns the named type underneath, or
// nil.
func namedFrom(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}

// isStdType reports whether t (possibly behind a pointer) is the named
// type pkgPath.name.
func isStdType(t types.Type, pkgPath, name string) bool {
	n := namedFrom(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// isAtomicType reports whether t is one of sync/atomic's typed values
// (Bool, Int32, Int64, Uint32, Uint64, Uintptr, Pointer[T], Value) —
// the fields whose cache-line placement padding-layout verifies.
func isAtomicType(t types.Type) bool {
	n := namedFrom(t)
	if n == nil {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return false
	}
	switch obj.Name() {
	case "Bool", "Int32", "Int64", "Uint32", "Uint64", "Uintptr", "Pointer", "Value":
		return true
	}
	return false
}

// atomicPointerElem returns the named type argument T when t is
// sync/atomic.Pointer[T], else nil.
func atomicPointerElem(t types.Type) *types.Named {
	n := namedFrom(t)
	if n == nil {
		return nil
	}
	obj := n.Obj()
	if obj == nil || obj.Name() != "Pointer" || obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return nil
	}
	args := n.TypeArgs()
	if args == nil || args.Len() != 1 {
		return nil
	}
	elem, _ := args.At(0).(*types.Named)
	return elem
}

// isRWMutex reports whether t is sync.RWMutex or *sync.RWMutex.
func isRWMutex(t types.Type) bool {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "RWMutex" && obj.Pkg() != nil && obj.Pkg().Path() == "sync"
}
