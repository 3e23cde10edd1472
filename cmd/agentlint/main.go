// Command agentlint runs the repo's invariant analyzers (internal/analysis)
// over the production sources of Go packages, from the module root:
//
//	agentlint ./...
//
// It loads and type-checks packages itself (via `go list -export` and the
// gc importer) and exits 1 on findings.
//
// Findings are suppressed only by an in-source justification:
//
//	//agentlint:allow <analyzer> -- <reason>
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"agentrec/internal/analysis"
)

func main() {
	flags := flag.NewFlagSet("agentlint", flag.ExitOnError)
	list := flags.Bool("list", false, "print the analyzer suite and exit")
	asJSON := flags.Bool("json", false, "emit diagnostics as JSON")
	flags.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: agentlint [-list] [-json] packages...")
		flags.PrintDefaults()
	}
	_ = flags.Parse(os.Args[1:])

	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			doc := a.Doc
			if i := strings.IndexByte(doc, '\n'); i >= 0 {
				doc = doc[:i]
			}
			fmt.Printf("%-12s %s\n", a.Name, doc)
		}
		return
	}
	patterns := flags.Args()
	if len(patterns) == 0 {
		patterns = []string{"."}
	}
	pkgs, err := analysis.Load(".", patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "agentlint:", err)
		os.Exit(1)
	}
	type jsonDiag struct {
		Pos      string `json:"pos"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	}
	var out []jsonDiag
	for _, pkg := range pkgs {
		diags, err := analysis.RunAnalyzers(analyzers, pkg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "agentlint:", err)
			os.Exit(1)
		}
		for _, d := range diags {
			out = append(out, jsonDiag{
				Pos:      pkg.Fset.Position(d.Pos).String(),
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(out)
	} else {
		for _, d := range out {
			fmt.Printf("%s: %s [%s]\n", d.Pos, d.Message, d.Analyzer)
		}
	}
	if len(out) > 0 {
		os.Exit(1)
	}
}
