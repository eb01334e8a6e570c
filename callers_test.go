package eventcap_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"eventcap/internal/analysis/load"
)

// uncalledAllowed names each package-level declaration that no program
// in the module calls but that stays, with the reason. An entry that
// gains a non-test caller, or whose declaration disappears, fails
// TestEveryDeclarationHasACaller, so the list never outlives its reasons.
var uncalledAllowed = map[string]string{
	"internal/core.LagrangianFI":              "test oracle: the Lagrangian relaxation Theorem 1's greedy solution is checked against",
	"internal/core.BuildFIMDP":                "test oracle: the full-information MDP the mdp solvers cross-check GreedyFI on",
	"internal/mdp.MDP.RelativeValueIteration": "test oracle for the average-reward solvers",
	"internal/mdp.MDP.PolicyIteration":        "test oracle for the average-reward solvers",
	"internal/mdp.MDP.SolveLP":                "test oracle for the average-reward solvers",
	"internal/mdp.MDP.EvaluatePolicy":         "test oracle: evaluates a fixed policy of the cross-checked MDPs",
	"internal/stats.ChiSquare":                "test helper: goodness-of-fit checks of the samplers",
	"internal/stats.MeanCI":                   "test helper: confidence intervals of replicated test runs",
	"internal/renewal.Process.Mass":           "test oracle: the renewal mass the belief filter is checked against",
	"internal/core.BeliefFilter.Clone":        "test helper: concurrent use of cloned filters",
	"internal/core.BeliefFilter.Belief":       "test helper: compares the filter's belief with the dense reference",
	"internal/core.BeliefFilter.TotalMass":    "test helper: the filter's normalization invariant",
	"internal/energy.Battery.Capacity":        "test helper: battery accounting checks",
	"internal/energy.Battery.Denied":          "test helper: battery accounting checks",
	"internal/energy.Battery.Received":        "test helper: battery accounting checks",
	"internal/dist.Empirical.MaxSupport":      "test helper: support bounds of the empirical law",
	"internal/analysis/analysistest.Run":      "test helper: runs an analyzer over its fixture",
	"internal/core.NewBeliefFilter":           "regenbench entry point: times belief steps in its traced pass",
	"internal/core.CacheStats":                "regenbench entry point: reports policy-cache hits and misses",
	"internal/core.ResetPolicyCache":          "regenbench entry point: starts every repetition with a cold cache",
	"internal/core.EvaluatePI":                "regenbench entry point: times PI evaluations in its traced pass",
}

// TestEveryDeclarationHasACaller fails on any package-level func, method,
// type, var or const in a non-test file that no non-test code in the
// module uses. Go refuses imports of internal/ from outside the module,
// so such a declaration has no caller anywhere: it is code only its own
// tests run. A use inside the declaration itself (recursion, or a type
// named by its own methods) does not count. A method also counts as used
// when its name belongs to an interface declared in the module or to
// fmt.Stringer, error, json.Marshaler, json.Unmarshaler, sort.Interface
// or one of io's interfaces, since it may be called through one.
func TestEveryDeclarationHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list over the whole module")
	}
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	targets, exports, err := load.List(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	imp := exports.Importer(fset)
	viaInterface, err := stdMethodNames(imp)
	if err != nil {
		t.Fatal(err)
	}

	declared := make(map[string]string) // key -> file:line:col, relative to the module root
	methods := make(map[string]string)  // method key -> method name
	own := make(map[string][]ast.Node)  // key -> the declarations a use inside does not count
	var infos []*types.Info
	for _, lp := range targets {
		if len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := load.Check(fset, imp, lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			t.Fatal(err)
		}
		infos = append(infos, pkg.Info)
		declare := func(id *ast.Ident, n ast.Node) string {
			key := declKey(pkg.Info.Defs[id])
			if key == "" {
				return ""
			}
			pos := fset.Position(id.Pos())
			if rel, err := filepath.Rel(root, pos.Filename); err == nil {
				pos.Filename = rel
			}
			declared[key] = pos.String()
			own[key] = append(own[key], n)
			return key
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv == nil && (d.Name.Name == "main" || d.Name.Name == "init") {
						continue
					}
					key := declare(d.Name, d)
					if i := strings.LastIndex(key, "."); d.Recv != nil && i >= 0 {
						// A method may be called through an interface by
						// name, and it does not use its own receiver type.
						methods[key] = d.Name.Name
						own[key[:i]] = append(own[key[:i]], d)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							declare(s.Name, s)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if id.Name != "_" {
									declare(id, s)
								}
							}
						}
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					if iface, ok := pkg.Info.Types[it].Type.(*types.Interface); ok {
						for i := 0; i < iface.NumMethods(); i++ {
							viaInterface[iface.Method(i).Name()] = true
						}
					}
				}
				return true
			})
		}
	}

	used := make(map[string]bool)
	for _, info := range infos {
		for id, obj := range info.Uses {
			key := declKey(obj)
			if key == "" || used[key] || inside(own[key], id.Pos()) {
				continue
			}
			used[key] = true
		}
	}

	hasCaller := func(key string) bool { return used[key] || viaInterface[methods[key]] }

	var uncalled []string
	for key, pos := range declared {
		if _, ok := uncalledAllowed[key]; !ok && !hasCaller(key) {
			uncalled = append(uncalled, pos+": "+key)
		}
	}
	sort.Strings(uncalled)
	for _, u := range uncalled {
		t.Errorf("no non-test code uses %s", u)
	}

	// Each kept declaration is a claim of its own: it still exists and
	// still has no caller, so the reason given for it still holds.
	kept := make([]string, 0, len(uncalledAllowed))
	for key := range uncalledAllowed {
		kept = append(kept, key)
	}
	sort.Strings(kept)
	for _, key := range kept {
		t.Run(key, func(t *testing.T) {
			if _, ok := declared[key]; !ok {
				t.Fatalf("uncalledAllowed names %s, which is not declared: remove the entry", key)
			}
			if hasCaller(key) {
				t.Fatalf("%s has a caller now: remove it from uncalledAllowed (kept as %q)", key, uncalledAllowed[key])
			}
		})
	}
}

// declKey names a package-level object of this module as its import path
// (module prefix dropped) and name, with the receiver's type name between
// for a method; it returns "" for anything else.
func declKey(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "eventcap/") {
		return ""
	}
	prefix := strings.TrimPrefix(obj.Pkg().Path(), "eventcap/") + "."
	if fn, ok := obj.(*types.Func); ok {
		fn = fn.Origin()
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			named, ok := rt.(*types.Named)
			if !ok || types.IsInterface(named) {
				return ""
			}
			return prefix + named.Obj().Name() + "." + fn.Name()
		}
		obj = fn
	}
	if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
		return "" // a struct field or a local
	}
	return prefix + obj.Name()
}

// inside reports whether pos lies within one of nodes.
func inside(nodes []ast.Node, pos token.Pos) bool {
	for _, n := range nodes {
		if n.Pos() <= pos && pos < n.End() {
			return true
		}
	}
	return false
}

// stdMethodNames returns the method names of fmt.Stringer, error,
// json.Marshaler, json.Unmarshaler, sort.Interface and every interface
// the io package declares.
func stdMethodNames(imp types.Importer) (map[string]bool, error) {
	names := make(map[string]bool)
	add := func(typ types.Type) {
		iface := typ.Underlying().(*types.Interface)
		for i := 0; i < iface.NumMethods(); i++ {
			names[iface.Method(i).Name()] = true
		}
	}
	add(types.Universe.Lookup("error").Type())
	for path, ifaces := range map[string][]string{
		"fmt":           {"Stringer"},
		"encoding/json": {"Marshaler", "Unmarshaler"},
		"sort":          {"Interface"},
		"io":            nil, // every interface
	} {
		pkg, err := imp.Import(path)
		if err != nil {
			return nil, err
		}
		if ifaces == nil {
			ifaces = pkg.Scope().Names()
		}
		for _, name := range ifaces {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && types.IsInterface(tn.Type()) {
				add(tn.Type())
			}
		}
	}
	return names, nil
}
