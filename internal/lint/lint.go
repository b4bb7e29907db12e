// Package lint registers the rapidlint analyzer suite: the machine-checked
// engine invariants described in DESIGN.md's "Invariants" section. Each
// analyzer guards an invariant that no test or vet check catches when it
// breaks; deterministic output order, prompt cancellation, span discipline
// and closing DFS handles are pinned by tests and go vet instead. Every
// analyzer checks one package at a time. The invariants that span
// packages are kept local by construction instead: versioned cache keys
// are a type (plancache.Key), and lockorder requires locks to stay
// package-private so that cross-package lock edges follow the acyclic
// import graph.
package lint

import (
	"rapidanalytics/internal/lint/analysis"
	"rapidanalytics/internal/lint/errtyped"
	"rapidanalytics/internal/lint/hotalloc"
	"rapidanalytics/internal/lint/lockorder"
)

// Analyzers returns the full rapidlint suite in reporting order: the two
// intraprocedural checkers, then lockorder, which summarizes functions
// within their package.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		hotalloc.Analyzer,
		errtyped.Analyzer,
		lockorder.Analyzer,
	}
}
