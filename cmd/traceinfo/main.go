// Command traceinfo summarises branch traces: record counts, instruction
// counts, branch-site population, bias fractions and direction rates.
// It accepts BFT1 files (from tracegen) or synthetic trace names.
//
// Usage:
//
//	traceinfo traces/SPEC03.bft traces/SERV1.bft
//	traceinfo -t SPEC03 -n 1000000
package main

import (
	"flag"
	"fmt"
	"os"

	"bfbp"
	"bfbp/internal/analysis"
	"bfbp/internal/trace"
)

func main() {
	var (
		traceName = flag.String("t", "", "synthetic trace name instead of files")
		branches  = flag.Int("n", 500_000, "dynamic branches for synthetic traces")
	)
	flag.Parse()
	if *branches < 1 {
		fmt.Fprintf(os.Stderr, "traceinfo: -n %d is below 1\n", *branches)
		os.Exit(2)
	}

	switch {
	case *traceName != "":
		spec, ok := bfbp.TraceByName(*traceName)
		if !ok {
			fatal(fmt.Errorf("unknown trace %q", *traceName))
		}
		report(spec.Name, spec.GenerateN(*branches))
	case flag.NArg() > 0:
		for _, path := range flag.Args() {
			f, err := os.Open(path)
			if err != nil {
				fatal(err)
			}
			tr, err := trace.Collect(trace.NewFileReader(f))
			f.Close()
			if err != nil {
				fatal(fmt.Errorf("%s: %w", path, err))
			}
			report(path, tr)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func report(name string, tr bfbp.Trace) {
	classes, err := analysis.Classify(tr.Stream())
	if err != nil {
		fatal(err)
	}
	pop := analysis.Population(classes)
	insts := tr.Instructions()
	fmt.Printf("%s:\n", name)
	fmt.Printf("  branches          %d\n", len(tr))
	fmt.Printf("  instructions      %d (%.2f per branch)\n", insts, float64(insts)/float64(len(tr)))
	fmt.Printf("  branch sites      %d\n", pop.Sites)
	fmt.Printf("  biased sites      %d (%.1f%%)\n", pop.BiasedSites,
		100*float64(pop.BiasedSites)/float64(pop.Sites))
	fmt.Printf("  biased dynamic    %.1f%%\n", 100*float64(pop.BiasedDynamic)/float64(pop.DynamicBranches))
	fmt.Printf("  taken rate        %.1f%%\n", 100*pop.TakenRate)
	fmt.Println()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "traceinfo:", err)
	os.Exit(1)
}
