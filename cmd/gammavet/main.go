// Command gammavet is the multichecker driver for the repository's custom
// analyzers (internal/analysis): it enforces that the simulator stays
// bit-for-bit deterministic and that no tuple traffic bypasses the cost
// model. CI runs it alongside go vet and the race detector.
//
// Usage:
//
//	go run ./cmd/gammavet ./...
//	go run ./cmd/gammavet -v ./internal/core ./internal/netsim
//
// Every package the patterns name gets all four analyzers (determinism,
// costcharge, unitflow, confine); -v lists the packages on stderr. With no
// pattern, gammavet checks ./... . Exit status is 1 when any diagnostic is
// reported and 2 on usage or load errors.
package main

import (
	"flag"
	"fmt"
	"os"

	"gammajoin/internal/analysis"
)

func main() {
	verbose := flag.Bool("v", false, "list analyzed packages")
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, diags, err := analysis.Check(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gammavet:", err)
		os.Exit(2)
	}
	if *verbose {
		for _, p := range pkgs {
			fmt.Fprintf(os.Stderr, "gammavet: %s\n", p)
		}
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "gammavet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
