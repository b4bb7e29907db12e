// Package lint registers the rapidlint analyzer suite: the machine-checked
// engine invariants described in DESIGN.md's "Invariants" section. Every
// analyzer checks one package at a time. The invariants that span packages
// are kept local by construction instead: versioned cache keys are a type
// (plancache.Key), and lockorder requires locks to stay package-private so
// that cross-package lock edges follow the acyclic import graph.
package lint

import (
	"rapidanalytics/internal/lint/analysis"
	"rapidanalytics/internal/lint/closecheck"
	"rapidanalytics/internal/lint/ctxloop"
	"rapidanalytics/internal/lint/errtyped"
	"rapidanalytics/internal/lint/hotalloc"
	"rapidanalytics/internal/lint/lockorder"
	"rapidanalytics/internal/lint/maporder"
	"rapidanalytics/internal/lint/spansafe"
)

// Analyzers returns the full rapidlint suite in reporting order: the five
// intraprocedural checkers, then closecheck and lockorder, which summarize
// functions within their package.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		maporder.Analyzer,
		ctxloop.Analyzer,
		hotalloc.Analyzer,
		spansafe.Analyzer,
		errtyped.Analyzer,
		closecheck.Analyzer,
		lockorder.Analyzer,
	}
}

// TestAnalyzers returns the subset of the suite that also applies to
// _test.go files under rapidlint -tests: the lifecycle checkers, whose
// invariants (cancel your contexts, close your resources) bind tests as
// much as production code. The allocation, span-aliasing and ordering
// analyzers police hot-path and determinism concerns that deliberately do
// not constrain tests.
func TestAnalyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxloop.Analyzer,
		closecheck.Analyzer,
	}
}
