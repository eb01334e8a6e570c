package analyzers

import (
	"go/ast"
	"go/types"

	"eventcap/internal/analysis"
)

// SeedflowMarker suppresses a seedflow finding when it appears, with a
// reason, on the flagged line or the line above. The canonical
// justified exception is a run-root construction: the one place per
// engine where the root stream is derived from Config.Seed.
const SeedflowMarker = "seedflow:ok"

// Seedflow enforces the RNG provenance contract (DESIGN.md §7): inside
// simulation paths, every random stream must descend from the run's
// seeded root via rng.Source.Split, so that results are a pure
// function of Config.Seed and the split topology.
// Fresh sources minted mid-path — rng.New with an ad-hoc seed, or a
// hand-rolled rng.Source composite literal — silently fork the stream
// graph and break worker-count invariance.
//
// The analyzer flags, in simulation-path packages:
//
//   - calls of rng.New (only the documented run-root constructions may
//     do this, annotated "// seedflow:ok run-root: ...");
//   - calls of rng.Source.Reseed, which re-root an existing source in
//     place — the batch engine's per-replication re-rooting is the one
//     documented exception ("// seedflow:ok replication-root: ...");
//   - composite literals of type rng.Source (the zero value is not a
//     valid generator and any literal bypasses seeding entirely).
//
// Deriving streams with Split or SplitInto is the sanctioned flow and
// is never flagged; SplitInto exists precisely so batch workers can
// refill per-chunk stream state without minting new sources.
var Seedflow = &analysis.Analyzer{
	Name: "seedflow",
	Doc: "RNG streams in simulation paths must descend from the seeded root via " +
		"rng.Split; fresh rng.New sources need // seedflow:ok <reason>",
	Run: runSeedflow,
}

func runSeedflow(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if pass.CalleeIn(n, "internal/rng", "New") && !pass.Justified(n.Pos(), SeedflowMarker) {
					pass.Reportf(n.Pos(), "fresh rng.New source in a simulation path: derive the stream from the run root via Split (// %s <reason> for the documented run-root constructions)", SeedflowMarker)
				}
				if pass.CalleeIn(n, "internal/rng", "Reseed") && !pass.Justified(n.Pos(), SeedflowMarker) {
					pass.Reportf(n.Pos(), "rng.Source.Reseed re-roots a stream mid-path, as seed-forking as a fresh rng.New: derive streams with Split/SplitInto instead (// %s <reason> for the documented replication-root constructions)", SeedflowMarker)
				}
			case *ast.CompositeLit:
				if isRNGSourceType(pass.TypeOf(n)) && !pass.Justified(n.Pos(), SeedflowMarker) {
					pass.Reportf(n.Pos(), "rng.Source composite literal bypasses seeding: construct sources with New at the run root or Split from a parent (// %s <reason> to suppress)", SeedflowMarker)
				}
			}
			return true
		})
	}
	return nil
}

// isRNGSourceType reports whether t is (a pointer to) the named type
// Source from the internal/rng package.
func isRNGSourceType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Source" &&
		analysis.PathHasSuffix(named.Obj().Pkg().Path(), "internal/rng")
}
