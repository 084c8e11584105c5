// Package analysis provides misprediction-attribution and
// branch-population reports on top of the simulation harness: per-branch
// classification (bias, entropy, taken rate), per-workload-kernel
// attribution of mispredictions, and side-by-side predictor comparisons.
// The cmd/analyze tool is a thin wrapper around it.
package analysis

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"bfbp/internal/sim"
	"bfbp/internal/trace"
	"bfbp/internal/workload"
)

// BranchClass characterises one static branch site.
type BranchClass struct {
	PC        uint64
	Count     uint64
	Taken     uint64
	Biased    bool    // all outcomes one direction
	TakenRate float64 // fraction taken
	// FlipRate is the fraction of consecutive outcome pairs that differ —
	// 0 for biased branches, ~0.5 for random ones, 1 for alternating.
	FlipRate float64
}

// Classify builds per-site branch classes from a trace.
func Classify(r trace.Reader) (map[uint64]*BranchClass, error) {
	type state struct {
		cls   *BranchClass
		last  bool
		flips uint64
		seen  bool
	}
	sites := map[uint64]*state{}
	for {
		rec, err := r.Read()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		st := sites[rec.PC]
		if st == nil {
			st = &state{cls: &BranchClass{PC: rec.PC}}
			sites[rec.PC] = st
		}
		st.cls.Count++
		if rec.Taken {
			st.cls.Taken++
		}
		if st.seen && rec.Taken != st.last {
			st.flips++
		}
		st.last = rec.Taken
		st.seen = true
	}
	out := make(map[uint64]*BranchClass, len(sites))
	for pc, st := range sites {
		c := st.cls
		c.Biased = c.Taken == 0 || c.Taken == c.Count
		c.TakenRate = float64(c.Taken) / float64(c.Count)
		if c.Count > 1 {
			c.FlipRate = float64(st.flips) / float64(c.Count-1)
		}
		out[pc] = c
	}
	return out, nil
}

// PopulationReport summarises a trace's branch population.
type PopulationReport struct {
	Sites           int
	DynamicBranches uint64
	BiasedSites     int
	BiasedDynamic   uint64
	TakenRate       float64
}

// Population reduces branch classes to a summary.
func Population(classes map[uint64]*BranchClass) PopulationReport {
	var rep PopulationReport
	var taken uint64
	for _, c := range classes {
		rep.Sites++
		rep.DynamicBranches += c.Count
		taken += c.Taken
		if c.Biased {
			rep.BiasedSites++
			rep.BiasedDynamic += c.Count
		}
	}
	if rep.DynamicBranches > 0 {
		rep.TakenRate = float64(taken) / float64(rep.DynamicBranches)
	}
	return rep
}

// KernelReport attributes one predictor's mispredictions to the workload
// kernels that emitted the branches.
type KernelReport struct {
	Kind        string
	Branches    uint64
	Mispredicts uint64
}

// AttributeKernels runs the predictor over the spec's trace and groups
// mispredictions by the kernel kind that owns each branch PC. Only
// synthetic traces (with a known layout) can be attributed.
func AttributeKernels(spec workload.Spec, branches int, p sim.Predictor) ([]KernelReport, sim.Stats, error) {
	layout := spec.Layout()
	tr := spec.GenerateN(branches)
	st, err := sim.Run(p, tr.Stream(), sim.Options{
		Warmup: uint64(branches / 10),
		PerPC:  true,
	})
	if err != nil {
		return nil, st, err
	}
	agg := map[string]*KernelReport{}
	for _, o := range st.TopOffenders(1 << 30) {
		kind := workload.KindOf(layout, o.PC)
		if kind == "" {
			kind = "(unmapped)"
		}
		r := agg[kind]
		if r == nil {
			r = &KernelReport{Kind: kind}
			agg[kind] = r
		}
		r.Branches += o.Count
		r.Mispredicts += o.Mispredicts
	}
	out := make([]KernelReport, 0, len(agg))
	for _, r := range agg {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Mispredicts > out[j].Mispredicts })
	return out, st, nil
}

// Comparison is a side-by-side per-kernel view of several predictors.
type Comparison struct {
	Kinds      []string
	Predictors []string
	// Mispredicts[kind][predictor].
	Mispredicts map[string]map[string]uint64
	// MPKI per predictor.
	MPKI map[string]float64
}

// Compare attributes several predictors over the same trace.
func Compare(spec workload.Spec, branches int, preds []sim.Predictor) (Comparison, error) {
	cmp := Comparison{
		Mispredicts: map[string]map[string]uint64{},
		MPKI:        map[string]float64{},
	}
	kindSet := map[string]bool{}
	for _, p := range preds {
		reports, st, err := AttributeKernels(spec, branches, p)
		if err != nil {
			return cmp, err
		}
		cmp.Predictors = append(cmp.Predictors, p.Name())
		cmp.MPKI[p.Name()] = st.MPKI()
		for _, r := range reports {
			if cmp.Mispredicts[r.Kind] == nil {
				cmp.Mispredicts[r.Kind] = map[string]uint64{}
			}
			cmp.Mispredicts[r.Kind][p.Name()] = r.Mispredicts
			kindSet[r.Kind] = true
		}
	}
	for k := range kindSet {
		cmp.Kinds = append(cmp.Kinds, k)
	}
	sort.Strings(cmp.Kinds)
	return cmp, nil
}

// Render formats the comparison as an aligned table.
func (c Comparison) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s", "kind")
	for _, p := range c.Predictors {
		fmt.Fprintf(&b, " %14s", p)
	}
	b.WriteByte('\n')
	for _, k := range c.Kinds {
		fmt.Fprintf(&b, "%-14s", k)
		for _, p := range c.Predictors {
			fmt.Fprintf(&b, " %14d", c.Mispredicts[k][p])
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-14s", "MPKI")
	for _, p := range c.Predictors {
		fmt.Fprintf(&b, " %14.3f", c.MPKI[p])
	}
	b.WriteByte('\n')
	return b.String()
}

// TopOffendersReport renders the worst-predicted PCs, with their branch
// classes for context when a classification is supplied. A nil classes
// map omits the taken%/flip% columns instead of printing zeros, so
// callers without a trace classification (cmd/bfsim) share this
// formatter too.
func TopOffendersReport(st sim.Stats, classes map[uint64]*BranchClass, n int) string {
	var b strings.Builder
	if classes == nil {
		fmt.Fprintf(&b, "%-12s %10s %10s %8s\n", "pc", "count", "mispred", "rate")
		for _, o := range st.TopOffenders(n) {
			fmt.Fprintf(&b, "%#-12x %10d %10d %7.1f%%\n",
				o.PC, o.Count, o.Mispredicts,
				100*float64(o.Mispredicts)/float64(o.Count))
		}
		return b.String()
	}
	fmt.Fprintf(&b, "%-12s %10s %10s %8s %8s %8s\n",
		"pc", "count", "mispred", "rate", "taken%", "flip%")
	for _, o := range st.TopOffenders(n) {
		var takenRate, flipRate float64
		if c := classes[o.PC]; c != nil {
			takenRate = c.TakenRate
			flipRate = c.FlipRate
		}
		fmt.Fprintf(&b, "%#-12x %10d %10d %7.1f%% %7.1f%% %7.1f%%\n",
			o.PC, o.Count, o.Mispredicts,
			100*float64(o.Mispredicts)/float64(o.Count),
			100*takenRate, 100*flipRate)
	}
	return b.String()
}
