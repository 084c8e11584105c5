// Package workload synthesises the 40-trace benchmark suite standing in
// for the CBP-4 traces the paper evaluates on (§VI-A): 20 "long" SPEC2006
// traces and 20 "short" traces drawn from floating-point (FP), integer
// (INT), multi-media (MM) and server (SERV) workload families.
//
// Real CBP-4 traces are not redistributable, so each trace here is a
// deterministic composition of behaviour kernels, each of which exercises
// one of the population structures the paper's argument rests on:
//
//   - biased pads: branches that resolve one way every time (Fig. 2 shows
//     15-75% of branches are like this);
//   - long-distance correlated pairs separated by hundreds to thousands of
//     biased branches (the correlations only a filtered history can reach);
//   - repeat-flooded correlated pairs separated by many dynamic instances
//     of a few non-biased branches (what the recency stack dedups);
//   - the positional-history loop of the paper's Fig. 4;
//   - local-pattern branches best predicted by their own history (the
//     SPEC07/FP2/MM5 discussion in §VI-D);
//   - constant-trip loops (the loop predictor's target);
//   - phase-changing branches that defeat dynamic bias detection (the
//     SERV3 discussion in §VI-D); and
//   - irreducible random noise that sets the MPKI floor.
//
// Every trace is reproducible from its seed alone.
package workload

import (
	"fmt"
	"sort"

	"bfbp/internal/rng"
	"bfbp/internal/trace"
)

// Family labels the workload category of a trace.
type Family string

// The five trace families of the CBP-4 suite.
const (
	SPEC Family = "SPEC" // long SPEC2006-like traces
	FP   Family = "FP"   // floating point
	INT  Family = "INT"  // integer
	MM   Family = "MM"   // multi-media
	SERV Family = "SERV" // server
)

// emitter accumulates the trace while kernels run. A streaming reader
// recycles out between kernel bursts and counts recycled records in
// drained; GenerateN leaves drained at zero and keeps the whole slice.
type emitter struct {
	r       *rng.SplitMix64
	out     trace.Slice
	drained int
	target  int
}

func (e *emitter) emit(pc uint64, taken bool, target uint64) {
	e.out = append(e.out, trace.Record{
		PC:      pc,
		Target:  target,
		Taken:   taken,
		Instret: uint8(3 + e.r.Intn(5)), // 3-7 instructions per branch
	})
}

func (e *emitter) full() bool { return e.drained+len(e.out) >= e.target }

// kernel is one behaviour generator. step emits a short burst of branches.
type kernel interface {
	step(e *emitter)
}

// region hands out non-overlapping PC ranges to kernels so branch sites
// never collide across kernels (aliasing inside predictors is still
// exercised through their own index hashing).
type region struct {
	next  uint64
	trace func(base uint64, n int)
}

func (g *region) alloc(n int) uint64 {
	base := 0x400000 + g.next<<6
	g.next += uint64(n)
	if g.trace != nil {
		g.trace(base, n)
	}
	return base
}

// Spec describes one synthetic trace.
type Spec struct {
	// Name is the trace identifier, e.g. "SPEC03" or "SERV1".
	Name string
	// Family is the workload category.
	Family Family
	// Seed makes the trace reproducible.
	Seed uint64
	// Branches is the default dynamic conditional-branch count.
	Branches int

	profile profile
}

// GenerateN builds the trace with approximately n dynamic branches
// (kernels finish their current burst, so the result may exceed n by a
// burst length).
func (s Spec) GenerateN(n int) trace.Slice {
	g := s.generator(n, n+n/8)
	for !g.e.full() {
		g.stepOnce()
	}
	return g.e.out
}

// generator holds the kernel ensemble and scheduler state shared by the
// materialising (GenerateN) and streaming (Stream) paths. Both consume
// randomness in the same order, so they emit identical records.
type generator struct {
	e       *emitter
	kernels []kernel
	cum     []float64
	total   float64
	sched   *rng.SplitMix64
}

func (s Spec) generator(n, bufCap int) *generator {
	r := rng.New(s.Seed)
	reg := &region{}
	kernels, weights := s.profile.build(r, reg)
	g := &generator{
		e:       &emitter{r: r.Fork(0xE317), target: n, out: make(trace.Slice, 0, bufCap)},
		kernels: kernels,
		sched:   r.Fork(0x5C4ED),
	}
	// Weighted round-robin over kernels until the target is reached.
	g.cum = make([]float64, len(weights))
	for i, w := range weights {
		g.total += w
		g.cum[i] = g.total
	}
	return g
}

// stepOnce picks one kernel by weight and runs one burst.
func (g *generator) stepOnce() {
	x := g.sched.Float64() * g.total
	idx := sort.SearchFloat64s(g.cum, x)
	if idx >= len(g.kernels) {
		idx = len(g.kernels) - 1
	}
	g.kernels[idx].step(g.e)
}

// Reseed returns a copy of the spec whose random streams are re-derived
// from the given variant number, keeping the same behavioural structure
// (kernels, shares, distances) but fresh outcomes and interleavings.
// Running a predictor over several reseeded variants gives a variance
// estimate for any reported MPKI.
func (s Spec) Reseed(variant uint64) Spec {
	if variant == 0 {
		return s
	}
	s.Seed = rng.Hash64(s.Seed ^ (variant * 0x9e3779b97f4a7c15))
	return s
}

// String implements fmt.Stringer.
func (s Spec) String() string {
	return fmt.Sprintf("%s(%s, seed=%d, branches=%d)", s.Name, s.Family, s.Seed, s.Branches)
}
