package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// cacheLine is the coherence granule padding-layout checks against. 64
// bytes covers every deployment target this repo cares about (x86-64,
// and the common arm64 parts; Apple's 128-byte M-series lines are
// strictly safer under a 64-byte discipline for writers).
const cacheLine = 64

// PaddingLayout verifies, from real go/types field offsets, that the
// padded concurrency structs actually deliver the layout their comments
// promise. The hot structs — telemetry's counter shards, the fastpath's
// packed trie nodes — are hand-padded so concurrent writers never
// false-share a cache line; nothing re-checks the
// arithmetic when a field is added, a slice header replaces an array,
// or the struct is instantiated with a different type argument. This
// analyzer does, against a target types.Sizes (Config.TargetArch,
// default amd64), for every struct annotated //cluevet:padded:
//
//   - Every atomic-typed field (atomic.Uint64, atomic.Bool,
//     atomic.Pointer[T], ...) must have its cache line(s) to itself:
//     only blank (_) padding fields may share them. Two atomic cursors
//     on one line is exactly the producer/consumer false sharing the
//     padding exists to prevent.
//   - When the struct is used as a slice or array element anywhere in
//     the package, its size must tile cache lines exactly: a whole
//     number of lines per element, or (for small read-mostly nodes like
//     the fastpath's packed trie nodes) a whole number of elements per
//     line. Anything else puts one element's tail and the next one's
//     head on a shared line across the array — defeating per-worker
//     isolation for written structs, and costing an extra line fill per
//     straddling access for packed lookup nodes.
//
// Generic structs are checked per instantiation found in the package
// (pair[[8]byte], not the uninstantiated pair[T]): layout depends on
// the type argument.
var PaddingLayout = &Analyzer{
	Name: "padding-layout",
	Doc:  "structs marked //cluevet:padded keep concurrently-written fields on distinct cache lines (checked from go/types offsets)",
}

func init() { PaddingLayout.Run = runPaddingLayout }

func runPaddingLayout(p *Pass) {
	marked := paddedStructs(p.Files)
	if len(marked) == 0 {
		return
	}
	arch := p.Config.TargetArch
	if arch == "" {
		arch = "amd64"
	}
	sizes := types.SizesFor("gc", arch)
	if sizes == nil {
		sizes = types.SizesFor("gc", "amd64")
	}
	elements := sliceElementTypes(p)
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok || !marked[ts.Name.Name] {
					continue
				}
				obj, ok := p.Info.Defs[ts.Name].(*types.TypeName)
				if !ok {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				insts := instantiations(p, named)
				if len(insts) == 0 {
					p.Reportf(PaddingLayout, ts.Pos(), Warning,
						"generic padded struct %s has no instantiation in this package; its layout promise is unverified here", ts.Name.Name)
				}
				for _, inst := range insts {
					st, ok := inst.Underlying().(*types.Struct)
					if !ok {
						p.Reportf(PaddingLayout, ts.Pos(), Error,
							"//cluevet:padded on %s, which is not a struct", typeLabel(inst))
						continue
					}
					checkPaddedStruct(p, ts, inst, st, sizes, elements)
				}
			}
		}
	}
}

// instantiations returns the concrete types to lay out for a padded
// named type: the type itself when it is not generic, otherwise every
// instantiation that appears in the package (an uninstantiated generic
// has no layout). A generic padded struct with no local instantiation
// is reported — the promise is unverifiable.
func instantiations(p *Pass, named *types.Named) []*types.Named {
	if named.TypeParams() == nil || named.TypeParams().Len() == 0 {
		return []*types.Named{named}
	}
	var out []*types.Named
	seen := make(map[string]bool)
	add := func(t types.Type) {
		n, ok := t.(*types.Named)
		if !ok || n.Origin() != named.Origin() || n.TypeArgs() == nil || n.TypeArgs().Len() == 0 {
			return
		}
		key := types.TypeString(n, nil)
		if !seen[key] {
			seen[key] = true
			out = append(out, n)
		}
	}
	for _, tv := range p.Info.Types {
		if tv.Type == nil {
			continue
		}
		t := tv.Type
		for {
			if ptr, ok := t.(*types.Pointer); ok {
				t = ptr.Elem()
				continue
			}
			if sl, ok := t.(*types.Slice); ok {
				t = sl.Elem()
				continue
			}
			if ar, ok := t.(*types.Array); ok {
				t = ar.Elem()
				continue
			}
			break
		}
		add(t)
	}
	return out
}

// sliceElementTypes collects every type used as a slice or array
// element in the package, keyed by type string: a padded struct seen
// here must be sized to whole cache lines, or adjacent elements will
// share a line.
func sliceElementTypes(p *Pass) map[string]bool {
	out := make(map[string]bool)
	for _, tv := range p.Info.Types {
		switch t := tv.Type.(type) {
		case *types.Slice:
			out[types.TypeString(t.Elem(), nil)] = true
		case *types.Array:
			out[types.TypeString(t.Elem(), nil)] = true
		}
	}
	return out
}

// checkPaddedStruct verifies one concrete padded struct.
func checkPaddedStruct(p *Pass, ts *ast.TypeSpec, named *types.Named, st *types.Struct, sizes types.Sizes, elements map[string]bool) {
	label := typeLabel(named)
	n := st.NumFields()
	fields := make([]*types.Var, n)
	for i := 0; i < n; i++ {
		fields[i] = st.Field(i)
	}
	var offsets []int64
	var size int64
	ok := func() (ok bool) { // Offsetsof can panic on exotic types; treat as unverifiable
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		offsets = sizes.Offsetsof(fields)
		size = sizes.Sizeof(named)
		return true
	}()
	if !ok {
		p.Reportf(PaddingLayout, ts.Pos(), Warning, "cannot compute layout of %s for the target arch", label)
		return
	}

	// Atomic fields own their cache lines.
	type span struct{ first, last int64 } // inclusive line numbers
	lineSpan := func(i int) (span, bool) {
		sz := sizes.Sizeof(fields[i].Type())
		if sz == 0 {
			return span{}, false
		}
		return span{offsets[i] / cacheLine, (offsets[i] + sz - 1) / cacheLine}, true
	}
	for i := 0; i < n; i++ {
		if !isAtomicType(fields[i].Type()) {
			continue
		}
		a, okA := lineSpan(i)
		if !okA {
			continue
		}
		for j := 0; j < n; j++ {
			if j == i || fields[j].Name() == "_" {
				continue
			}
			b, okB := lineSpan(j)
			if !okB || b.last < a.first || b.first > a.last {
				continue
			}
			if j < i && isAtomicType(fields[j].Type()) {
				continue // pair already reported from j's side
			}
			p.Reportf(PaddingLayout, ts.Pos(), Error,
				"%s: atomic field %s (offset %d) shares a %d-byte cache line with %s (offset %d); concurrent writers will false-share — pad between them",
				label, fields[i].Name(), offsets[i], cacheLine, fields[j].Name(), offsets[j])
		}
	}

	// Array/slice elements must tile cache lines exactly: N lines per
	// element, or N elements per line.
	if elements[types.TypeString(named, nil)] &&
		size%cacheLine != 0 && (size <= 0 || cacheLine%size != 0) {
		p.Reportf(PaddingLayout, ts.Pos(), Error,
			"%s is a slice/array element but sizeof = %d does not tile %d-byte cache lines: adjacent elements straddle a line — grow the trailing padding by %d bytes",
			label, size, cacheLine, cacheLine-size%cacheLine)
	}
}

// typeLabel renders a named type compactly for diagnostics (package
// qualifier dropped, type arguments kept).
func typeLabel(n *types.Named) string {
	qual := func(p *types.Package) string { return "" }
	if n.TypeArgs() != nil && n.TypeArgs().Len() > 0 {
		args := ""
		for i := 0; i < n.TypeArgs().Len(); i++ {
			if i > 0 {
				args += ", "
			}
			args += types.TypeString(n.TypeArgs().At(i), qual)
		}
		return fmt.Sprintf("%s[%s]", n.Obj().Name(), args)
	}
	return n.Obj().Name()
}
