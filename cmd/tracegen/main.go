// Command tracegen writes the synthetic benchmark traces to disk in the
// BFT1 binary format, so they can be replayed with bfsim -f or inspected
// by other tools.
//
// Usage:
//
//	tracegen -o traces/                    # all 40 traces at default size
//	tracegen -t SPEC03,SERV1 -o traces/    # a subset
//	tracegen -t SPEC03 -n 2000000 -o .     # explicit length
//	tracegen -list                         # print trace names and exit
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"bfbp"
	"bfbp/internal/trace"
	"bfbp/internal/workload"
)

func main() {
	var (
		out   = flag.String("o", ".", "output directory")
		names = flag.String("t", "", "comma-separated trace names (default: all 40)")
		n     = flag.Int("n", 0, "dynamic branches per trace (0 = family default)")
		list  = flag.Bool("list", false, "list trace names and exit")
	)
	flag.Parse()
	if *n < 0 {
		fmt.Fprintf(os.Stderr, "tracegen: -n %d is below 0 (0 = family default)\n", *n)
		os.Exit(2)
	}

	if *list {
		for _, s := range bfbp.Traces() {
			fmt.Printf("%-8s %-5s default %d branches\n", s.Name, s.Family, s.Branches)
		}
		return
	}

	specs := bfbp.Traces()
	if *names != "" {
		var subset []workload.Spec
		for _, name := range strings.Split(*names, ",") {
			s, ok := bfbp.TraceByName(strings.TrimSpace(name))
			if !ok {
				fatal(fmt.Errorf("unknown trace %q", name))
			}
			subset = append(subset, s)
		}
		specs = subset
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	for _, s := range specs {
		count := s.Branches
		if *n > 0 {
			count = *n
		}
		path := filepath.Join(*out, s.Name+".bft")
		if err := writeTrace(path, s, count); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d branches)\n", path, count)
	}
}

func writeTrace(path string, s workload.Spec, n int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := trace.NewWriter(f)
	for _, rec := range s.GenerateN(n) {
		if err := w.Write(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tracegen:", err)
	os.Exit(1)
}
