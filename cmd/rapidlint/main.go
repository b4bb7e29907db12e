// Command rapidlint runs the rapidanalytics invariant analyzers (maporder,
// ctxloop, hotalloc, spansafe, errtyped, closecheck, lockorder — see
// DESIGN.md "Invariants") over Go packages:
//
//	go run ./cmd/rapidlint ./...
//
// exits 0 when the tree is clean, 1 with one "file:line:col: analyzer:
// message" line per finding otherwise, and 2 on a usage or load error.
// Flags:
//
//	-json    emit machine-readable diagnostics (a JSON array) on stdout
//	-gha     emit GitHub Actions workflow annotations (::error lines)
//	-tests   additionally analyze _test.go files with the lifecycle
//	         analyzers (ctxloop, closecheck); the allocation/span/ordering
//	         analyzers stay production-only
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"rapidanalytics/internal/lint"
	"rapidanalytics/internal/lint/driver"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("rapidlint", flag.ContinueOnError)
	fs.Usage = usage
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array")
	ghaOut := fs.Bool("gha", false, "emit GitHub Actions ::error annotations")
	tests := fs.Bool("tests", false, "also analyze _test.go files with the lifecycle analyzers")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		usage()
		return 2
	}
	diags, err := driver.Run("", driver.Options{Tests: *tests},
		lint.Analyzers(), lint.TestAnalyzers(), fs.Args()...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rapidlint:", err)
		return 2
	}
	switch {
	case *jsonOut:
		if err := writeJSON(os.Stdout, diags); err != nil {
			fmt.Fprintln(os.Stderr, "rapidlint:", err)
			return 2
		}
	case *ghaOut:
		for _, d := range diags {
			fmt.Println(ghaAnnotation(d))
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: rapidlint [-json|-gha] [-tests] <packages>   (e.g. rapidlint ./...)")
	fmt.Fprintln(os.Stderr, "\nanalyzers:")
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintln(os.Stderr, "\n-tests additionally applies to _test.go files:")
	for _, a := range lint.TestAnalyzers() {
		fmt.Fprintf(os.Stderr, "  %-10s\n", a.Name)
	}
}

// jsonDiagnostic is the -json wire shape: one object per finding, stable
// field names for CI tooling.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func writeJSON(w io.Writer, diags []driver.Diagnostic) error {
	out := make([]jsonDiagnostic, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiagnostic{
			File:     d.Position.Filename,
			Line:     d.Position.Line,
			Column:   d.Position.Column,
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ghaAnnotation renders one finding as a GitHub Actions workflow command,
// which the Actions runner turns into an inline PR annotation.
func ghaAnnotation(d driver.Diagnostic) string {
	return fmt.Sprintf("::error file=%s,line=%d,col=%d,title=rapidlint(%s)::%s",
		ghaEscapeProp(d.Position.Filename), d.Position.Line, d.Position.Column,
		ghaEscapeProp(d.Analyzer), ghaEscapeData(d.Message))
}

// ghaEscapeData escapes the message payload of a workflow command.
func ghaEscapeData(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
	return r.Replace(s)
}

// ghaEscapeProp escapes a workflow-command property value.
func ghaEscapeProp(s string) string {
	r := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ":", "%3A", ",", "%2C")
	return r.Replace(s)
}
