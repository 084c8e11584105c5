// Command journal queries and compares bfbp.journal.v1 files written
// by bfsim/experiments (-journal run.jsonl).
//
// Usage:
//
//	journal summary run.jsonl                  # event counts + run table
//	journal summary -json run.jsonl            # the same as a JSON document
//	journal filter -kind run_finish run.jsonl  # print matching raw lines
//	journal filter -trace SERV1 -predictor bf-tage-10 run.jsonl
//	journal filter -span 7 run.jsonl           # events joined to trace span 7
//	journal diff a.jsonl b.jsonl               # flag MPKI/window drift
//	journal diff -tolerance 0.01 a.jsonl b.jsonl
//
// diff exits 1 when the runs drifted, so it slots into CI gates; the
// -span filter takes the span IDs found in a bfbp.trace.v1 timeline
// (bfsim -trace-out), joining journal records to their trace slices.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"bfbp/internal/journalq"
)

func main() {
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	switch args[0] {
	case "summary":
		cmdSummary(args[1:])
	case "filter":
		cmdFilter(args[1:])
	case "diff":
		cmdDiff(args[1:])
	default:
		fmt.Fprintf(os.Stderr, "journal: unknown command %q\n", args[0])
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  journal summary [-json] FILE
  journal filter [-kind K] [-trace T] [-predictor P] [-span N] FILE
  journal diff [-tolerance F] FILE_A FILE_B
`)
}

func load(path string) []journalq.Event {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	events, err := journalq.Read(f)
	if err != nil {
		fatal(err)
	}
	return events
}

func cmdSummary(args []string) {
	fs := flag.NewFlagSet("summary", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the summary as a JSON document")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("summary: need exactly one journal file"))
	}
	s := journalq.Summarize(load(fs.Arg(0)))
	if *jsonOut {
		b, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(b))
		return
	}
	fmt.Print(s.Render())
}

func cmdFilter(args []string) {
	fs := flag.NewFlagSet("filter", flag.ExitOnError)
	var f journalq.Filter
	fs.StringVar(&f.Kind, "kind", "", "event kind (e.g. run_finish, window)")
	fs.StringVar(&f.Trace, "trace", "", "trace name")
	fs.StringVar(&f.Predictor, "predictor", "", "predictor name")
	fs.Uint64Var(&f.Span, "span", 0, "bfbp.trace.v1 span ID")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fatal(fmt.Errorf("filter: need exactly one journal file"))
	}
	for _, ev := range f.Apply(load(fs.Arg(0))) {
		fmt.Println(ev.Raw)
	}
}

func cmdDiff(args []string) {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	tol := fs.Float64("tolerance", 1e-9, "absolute MPKI tolerance before a cell counts as drifted")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fatal(fmt.Errorf("diff: need exactly two journal files"))
	}
	rep := journalq.Diff(load(fs.Arg(0)), load(fs.Arg(1)), *tol)
	fmt.Print(rep.Render())
	if !rep.Clean() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "journal:", err)
	os.Exit(1)
}
