// Command airebench regenerates the paper's deterministic evaluation
// tables — the ones that state facts, not timings:
//
//	airebench -table 3        # Table 3: API survey
//	airebench -table porting  # §7.3: server-side porting effort
//	airebench -table all
//
// Everything that prints a time or a rate (Tables 4 and 5, repair
// convergence) is the benchmark under bench/: bash bench/run.sh.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"aire/internal/harness"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process exit, so the smoke test can drive it.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("airebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	table := fs.String("table", "all", "table to regenerate: 3, porting, all")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	switch *table {
	case "3":
		table3(stdout)
	case "porting":
		porting(stdout)
	case "all":
		table3(stdout)
		fmt.Fprintln(stdout)
		porting(stdout)
	default:
		fmt.Fprintf(stderr, "unknown table %q\n", *table)
		return 2
	}
	return 0
}

func table3(w io.Writer) {
	fmt.Fprintln(w, "== Table 3: kinds of interfaces provided by popular web service APIs ==")
	fmt.Fprint(w, harness.FormatAPISurvey())
}

func porting(w io.Writer) {
	fmt.Fprintln(w, "== §7.3: server-side porting effort in this reproduction ==")
	fmt.Fprintf(w, "%-34s %s\n", "Change", "Lines of Go")
	for _, row := range harness.PortingEffort() {
		fmt.Fprintf(w, "%-34s %d\n", row.What, row.Lines)
	}
	fmt.Fprintln(w, "(paper: authorize policy 55 lines; notify/retry support 26 lines; version trees 44 lines)")
}
