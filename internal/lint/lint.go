// Package lint registers the rapidlint analyzer suite: the machine-checked
// engine invariants described in DESIGN.md's "Invariants" section. Each
// analyzer guards an invariant that no test or vet check catches when it
// breaks; deterministic output order, prompt cancellation and span
// discipline are pinned by tests and go vet instead. Every analyzer checks
// one package at a time. The invariants that span packages are kept local
// by construction instead: versioned cache keys are a type (plancache.Key),
// and lockorder requires locks to stay package-private so that
// cross-package lock edges follow the acyclic import graph.
package lint

import (
	"rapidanalytics/internal/lint/analysis"
	"rapidanalytics/internal/lint/closecheck"
	"rapidanalytics/internal/lint/errtyped"
	"rapidanalytics/internal/lint/hotalloc"
	"rapidanalytics/internal/lint/lockorder"
)

// Analyzers returns the full rapidlint suite in reporting order: the two
// intraprocedural checkers, then closecheck and lockorder, which summarize
// functions within their package.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		hotalloc.Analyzer,
		errtyped.Analyzer,
		closecheck.Analyzer,
		lockorder.Analyzer,
	}
}

// TestAnalyzers returns the subset of the suite that also applies to
// _test.go files under rapidlint -tests: closecheck, whose invariant (close
// your resources) binds tests as much as production code. The allocation,
// error-taxonomy and lock-order analyzers police production concerns that
// deliberately do not constrain tests.
func TestAnalyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		closecheck.Analyzer,
	}
}
