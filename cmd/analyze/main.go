// Command analyze attributes a predictor's mispredictions to workload
// structure: per-kernel breakdown, per-PC offender report with branch
// classes, and side-by-side predictor comparison.
//
// Usage:
//
//	analyze -t SPEC00 -p bf-isl-tage-10                   # kernel breakdown
//	analyze -t SPEC00 -p isl-tage-10,bf-isl-tage-10       # comparison
//	analyze -t SERV3 -p bf-neural -offenders 15           # worst PCs
//	analyze -t SPEC06 -population                         # branch classes only
//	analyze -t SERV1 -p tage-8,bf-tage-8 -explain         # provenance + paper-shape
//	analyze -t SERV1 -p tage-8,bf-tage-8 -utilization     # occupancy by history length
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bfbp"
	"bfbp/internal/analysis"
	"bfbp/internal/sim"
	"bfbp/internal/workload"
)

func main() {
	var (
		traceName   = flag.String("t", "", "synthetic trace name")
		preds       = flag.String("p", "", "comma-separated predictor names (bfsim names)")
		branches    = flag.Int("n", 400_000, "dynamic branches")
		offenders   = flag.Int("offenders", 0, "print the top-N mispredicted PCs with classes")
		population  = flag.Bool("population", false, "print the branch population summary and exit")
		explain     = flag.Bool("explain", false, "decision provenance: cause taxonomy, component/bank attribution, paper-shape check")
		utilization = flag.Bool("utilization", false, "capacity-vs-reach report: per-bank occupancy/conflicts by history length, with a bias-free vs conventional shape check on pairs")
	)
	flag.Parse()
	// A count below its floor is a usage error, not a silent default.
	for _, f := range []struct {
		name     string
		val, min int
	}{
		{"n", *branches, 1}, {"offenders", *offenders, 0},
	} {
		if f.val < f.min {
			fmt.Fprintf(os.Stderr, "analyze: -%s %d is below %d\n", f.name, f.val, f.min)
			os.Exit(2)
		}
	}

	if *traceName == "" {
		fatal(fmt.Errorf("need -t <trace>"))
	}
	spec, ok := workload.ByName(*traceName)
	if !ok {
		fatal(fmt.Errorf("unknown trace %q", *traceName))
	}

	if *population {
		classes, err := analysis.Classify(spec.GenerateN(*branches).Stream())
		if err != nil {
			fatal(err)
		}
		rep := analysis.Population(classes)
		fmt.Printf("trace            %s\n", spec.Name)
		fmt.Printf("sites            %d\n", rep.Sites)
		fmt.Printf("dynamic branches %d\n", rep.DynamicBranches)
		fmt.Printf("biased sites     %d (%.1f%%)\n", rep.BiasedSites,
			100*float64(rep.BiasedSites)/float64(rep.Sites))
		fmt.Printf("biased dynamic   %d (%.1f%%)\n", rep.BiasedDynamic,
			100*float64(rep.BiasedDynamic)/float64(rep.DynamicBranches))
		fmt.Printf("taken rate       %.1f%%\n", 100*rep.TakenRate)
		return
	}

	if *preds == "" {
		fatal(fmt.Errorf("need -p <predictors> (or -population)"))
	}
	infos, err := bfbp.SelectPredictors(*preds)
	if err != nil {
		fatal(err)
	}
	ps := make([]sim.Predictor, len(infos))
	for i, info := range infos {
		ps[i] = info.New()
	}

	if *explain {
		explainRun(spec, *branches, ps)
		return
	}

	if *utilization {
		utilizationRun(spec, *branches, ps)
		return
	}

	if len(ps) == 1 && *offenders > 0 {
		tr := spec.GenerateN(*branches)
		classes, err := analysis.Classify(tr.Stream())
		if err != nil {
			fatal(err)
		}
		st, err := bfbp.Run(ps[0], tr.Stream(), bfbp.Options{
			Warmup: uint64(*branches / 10), PerPC: true,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s on %s: MPKI %.3f\n\n", ps[0].Name(), spec.Name, st.MPKI())
		fmt.Print(analysis.TopOffendersReport(st, classes, *offenders))
		return
	}

	cmp, err := analysis.Compare(spec, *branches, ps)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("misprediction attribution on %s (%d branches):\n\n", spec.Name, *branches)
	fmt.Print(cmp.Render())
}

// explainRun evaluates each predictor with decision-provenance tracing
// and prints the attribution reports; when the list pairs a bias-free
// predictor with a conventional one (both with bank attribution), the
// paper-shape validation runs on the pair.
func explainRun(spec workload.Spec, branches int, ps []sim.Predictor) {
	tr := spec.GenerateN(branches)
	classes, err := analysis.Classify(tr.Stream())
	if err != nil {
		fatal(err)
	}
	var shapes []analysis.ShapeInput
	for _, p := range ps {
		st, err := bfbp.Run(p, tr.Stream(), bfbp.Options{
			Warmup:  uint64(branches / 10),
			PerPC:   true,
			Explain: true,
		})
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s on %s: MPKI %.3f\n", p.Name(), spec.Name, st.MPKI())
		if pv := st.Provenance; pv != nil {
			fmt.Print(analysis.CauseBreakdownReport(p.Name(), pv))
			fmt.Print(analysis.ComponentReport(pv))
			if banks := analysis.BankUtilizationReport(pv); banks != "" {
				fmt.Print(banks)
			}
		} else {
			fmt.Printf("  (no provenance: %s does not implement Explain)\n", p.Name())
		}
		fmt.Println()
		shapes = append(shapes, analysis.ShapeInput{Name: p.Name(), Stats: st, Reach: analysis.TaggedReach(p)})
	}
	if bf, base, ok := shapePair(shapes); ok {
		fmt.Print(analysis.PaperShape(bf, base, classes).Render())
	}
}

// utilizationRun prints each predictor's run-end table/state sample as
// a capacity-vs-reach report; when the list pairs a bias-free predictor
// with a conventional one, the capacity shape check runs on the pair.
func utilizationRun(spec workload.Spec, branches int, ps []sim.Predictor) {
	var reports []analysis.UtilizationReport
	for _, p := range ps {
		rep, err := analysis.Utilization(p, spec, branches)
		if err != nil {
			fatal(err)
		}
		fmt.Print(rep.Render())
		fmt.Println()
		reports = append(reports, rep)
	}
	var bf, base *analysis.UtilizationReport
	for i := range reports {
		if strings.HasPrefix(reports[i].Predictor, "bf-") {
			if bf == nil {
				bf = &reports[i]
			}
		} else if base == nil {
			base = &reports[i]
		}
	}
	if bf != nil && base != nil {
		fmt.Print(analysis.Capacity(*bf, *base).Render())
	}
}

// shapePair picks the first bias-free and first conventional predictor
// that both collected provenance; bank reach rides along when present.
func shapePair(shapes []analysis.ShapeInput) (bf, base analysis.ShapeInput, ok bool) {
	var haveBF, haveBase bool
	for _, s := range shapes {
		if s.Stats.Provenance == nil {
			continue
		}
		if strings.HasPrefix(s.Name, "bf-") {
			if !haveBF {
				bf, haveBF = s, true
			}
		} else if !haveBase {
			base, haveBase = s, true
		}
	}
	return bf, base, haveBF && haveBase
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "analyze:", err)
	os.Exit(1)
}
