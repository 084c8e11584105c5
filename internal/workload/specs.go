package workload

import (
	"strconv"
	"strings"

	"bfbp/internal/rng"
)

// profile is a weighted set of kernel constructors. Weights are expressed
// as desired shares of the dynamic branch stream; build converts them to
// per-round selection weights by dividing by each kernel's burst size.
// The profile also tracks the approximate biased fraction each kernel
// contributes so that fill() can hit a per-trace Fig. 2 target.
type profile struct {
	adders      []adder
	sumShare    float64
	biasedShare float64
}

type adder struct {
	share float64 // desired fraction of dynamic branches
	burst float64 // approximate branches emitted per step
	make  func(r *rng.SplitMix64, reg *region) kernel
}

// add registers a kernel: share of the stream, burst per step, the
// fraction of its output that is completely biased, and the constructor.
func (p *profile) addK(share, burst, biasedFrac float64, mk func(r *rng.SplitMix64, reg *region) kernel) {
	p.adders = append(p.adders, adder{share: share, burst: burst, make: mk})
	p.sumShare += share
	p.biasedShare += share * biasedFrac
}

func (p profile) build(r *rng.SplitMix64, reg *region) ([]kernel, []float64) {
	kernels := make([]kernel, len(p.adders))
	weights := make([]float64, len(p.adders))
	for i, a := range p.adders {
		kernels[i] = a.make(r, reg)
		weights[i] = a.share / a.burst
	}
	return kernels, weights
}

// Kernel share helpers: each declares its burst size and approximate
// biased-output fraction so profiles stay readable and fill() stays honest.

func (p *profile) biasedPad(share float64, sites, burst int) {
	p.addK(share, float64(burst), 1.0, func(r *rng.SplitMix64, reg *region) kernel {
		return newPadBiased(r, reg, sites, burst)
	})
}

// safeRound returns the kernel round length (pre-roll + distance + 1)
// needed so that every history window that could capture a correlation at
// the given distance — both a raw geometric-history window (the 15-table
// ISL series) and a BF-GHR window over the paper's segmentation — sees
// only in-round, deterministic content. Real programs get this property
// for free (a loop nest or call chain has a deterministic pre-history);
// synthetic kernels must budget for it explicitly.
func safeRoundDepth(distance int) int {
	srcDepth := distance + 2
	// Smallest conventional history length that reaches the source.
	isl := []int{3, 8, 12, 17, 33, 35, 67, 97, 138, 195, 330, 517, 1193, 1741, 1930}
	ell := isl[len(isl)-1]
	for _, l := range isl {
		if l >= srcDepth {
			ell = l
			break
		}
	}
	round := ell
	// BF-GHR: the source lands in a recency-stack segment; the smallest
	// BF history covering that slot also touches deeper segments, whose
	// depth ranges must be in-round too.
	bounds := []int{16, 32, 48, 64, 80, 104, 128, 192, 256, 320, 416, 512, 768, 1024, 1280, 1536, 2048}
	if srcDepth >= bounds[0] {
		seg := len(bounds) - 2
		for i := 0; i+1 < len(bounds); i++ {
			if srcDepth >= bounds[i] && srcDepth < bounds[i+1] {
				seg = i
				break
			}
		}
		srcPos := 16 + 8*seg
		bfHists := []int{3, 8, 14, 26, 40, 54, 70, 94, 118, 142}
		L := bfHists[len(bfHists)-1]
		for _, l := range bfHists {
			if l > srcPos {
				L = l
				break
			}
		}
		lastSeg := (L - 17) / 8
		if lastSeg > len(bounds)-2 {
			lastSeg = len(bounds) - 2
		}
		if bfR := bounds[lastSeg+1]; bfR > round {
			round = bfR
		}
	}
	return round + 8 // slack for the branches of the pair itself
}

func (p *profile) corr(share float64, distance, dstCount int, noise float64, padSites, noisyEvery int) {
	preRoll := safeRoundDepth(distance) - distance
	if preRoll < 8 {
		preRoll = 8
	}
	biased := 0.97
	if noisyEvery > 0 {
		biased = 0.97 * (1 - 1/float64(noisyEvery))
	}
	p.addK(share, float64(distance+preRoll+1+dstCount), biased, func(r *rng.SplitMix64, reg *region) kernel {
		return newCorrPair(r, reg, distance, preRoll, dstCount, noise, padSites, noisyEvery)
	})
}

func (p *profile) posLoop(share float64, count int) {
	p.addK(share, float64(1+2*count), 0, func(r *rng.SplitMix64, reg *region) kernel {
		return newPosLoop(r, reg, count)
	})
}

func (p *profile) local(share float64, period, burst int) {
	p.addK(share, float64(burst), 0, func(r *rng.SplitMix64, reg *region) kernel {
		return newLocalPattern(r, reg, period, burst)
	})
}

func (p *profile) constLoop(share float64, trips, bodySites int) {
	p.addK(share, float64(3*trips), 0.63, func(r *rng.SplitMix64, reg *region) kernel {
		return newConstLoop(r, reg, trips, bodySites)
	})
}

func (p *profile) phase(share float64, sites, phaseLen, burst int) {
	p.addK(share, float64(burst), 0, func(r *rng.SplitMix64, reg *region) kernel {
		return newPhaseBranch(r, reg, sites, phaseLen, burst)
	})
}

func (p *profile) noise(share float64, sites int, prob float64, burst int) {
	p.addK(share, float64(burst), 0, func(r *rng.SplitMix64, reg *region) kernel {
		return newRandomNoise(r, reg, sites, prob, burst)
	})
}

func (p *profile) parity(share float64, sources, window int) {
	p.addK(share, float64(sources+1), 0, func(r *rng.SplitMix64, reg *region) kernel {
		return newParityCorr(r, reg, sources, window)
	})
}

func (p *profile) braid(share float64, pairs, distance, spread, padSites int) {
	maxDist := distance + 2*(pairs-1)*(spread+1)
	pre := safeRoundDepth(maxDist) - maxDist
	if pre < 8 {
		pre = 8
	}
	round := pre + 2*pairs*(spread+1) + distance
	p.addK(share, float64(round), 0.93, func(r *rng.SplitMix64, reg *region) kernel {
		return newBraid(r, reg, pairs, distance, spread, padSites)
	})
}

func (p *profile) chain(share float64, links, gap, padSites, noisyEvery int) {
	preRoll := safeRoundDepth(gap) - gap
	if preRoll < 8 {
		preRoll = 8
	}
	round := preRoll + 1 + links*(gap+1)
	biased := float64(preRoll+links*gap) / float64(round)
	if noisyEvery > 0 {
		biased *= 1 - 1/float64(noisyEvery)
	}
	p.addK(share, float64(round), biased, func(r *rng.SplitMix64, reg *region) kernel {
		return newChain(r, reg, links, gap, preRoll, padSites, noisyEvery)
	})
}

func (p *profile) cluster(share float64, followers, period, pads int) {
	round := 1 + followers*(1+pads)
	biased := float64(followers*pads) / float64(round)
	p.addK(share, float64(round), biased, func(r *rng.SplitMix64, reg *region) kernel {
		return newCluster(r, reg, followers, period, pads)
	})
}

func (p *profile) bigFoot(share float64, sites, burst int) {
	p.addK(share, float64(burst), 1.0, func(r *rng.SplitMix64, reg *region) kernel {
		return newBigFoot(r, reg, sites, burst)
	})
}

func (p *profile) funcCall(share float64, depth int) {
	p.addK(share, float64(2+depth*30), 0.73, func(r *rng.SplitMix64, reg *region) kernel {
		return newFuncCall(r, reg, depth)
	})
}

func (p *profile) selfCorr(share float64, lag, burst int) {
	p.addK(share, float64(burst*3), 0.63, func(r *rng.SplitMix64, reg *region) kernel {
		return newSelfCorr(r, reg, lag, burst)
	})
}

// fill tops the profile up to a total share of 1.0 while steering the
// overall biased fraction toward target: completely biased pads raise it,
// and predictable non-biased filler (periodic local patterns and parity
// chains, plus a pinch of noise) dilutes it.
func (p *profile) fill(target float64, padSites int, clean bool) {
	// Filler cluster kernels with intra-round biased pads contribute
	// ~0.48 biased content per share; solve for the explicit pad share
	// that lands the whole trace on the Fig. 2 target.
	clusterShare := 0.82
	if clean {
		clusterShare = 0.83
	}
	const clusterBiasedFrac = 0.48
	cb := clusterShare * clusterBiasedFrac
	padShare := (target - p.biasedShare - (1-p.sumShare)*cb) / (1 - cb)
	pads := 1
	if padShare < 0.02 {
		// Low-bias trace: drop the intra-cluster pads entirely.
		pads = 0
		padShare = target - p.biasedShare
		if padShare < 0.02 {
			padShare = 0.02
		}
	}
	rest := 1 - p.sumShare - padShare
	p.biasedPad(padShare, padSites, 6)
	if rest <= 0 {
		return
	}
	// Non-biased filler. The bulk is condition-re-test clusters — easy
	// for every predictor — plus a modest slice of periodic local
	// patterns and a parity chain whose burst boundaries are genuinely
	// hard for pure global-history prediction, and a sliver of random
	// branches for the MPKI floor. Long-history-sensitive traces use the
	// clean mix (lower floor) so deep-correlation deltas dominate their
	// relative MPKI, as in the paper's Fig. 11.
	if clean {
		p.cluster(rest*0.58, 24, 2, pads)
		p.cluster(rest*0.24, 11, 3, pads)
		p.cluster(rest*0.02, 16, 0, pads)
		p.local(rest*0.05, 4, 8)
		p.parity(rest*0.06, 3, 5)
		p.noise(rest*0.002, 4, 0.5, 4)
		return
	}
	p.cluster(rest*0.50, 24, 2, pads)
	p.cluster(rest*0.18, 11, 3, pads)
	p.cluster(rest*0.14, 16, 0, pads)
	p.local(rest*0.08, 4, 8)
	p.parity(rest*0.08, 3, 5)
	p.noise(rest*0.02, 4, 0.5, 4)
}

// Default trace lengths: scaled-down stand-ins for the paper's 15-30M-
// branch long traces and 3-5M-branch short traces (see DESIGN.md §1).
const (
	LongTraceBranches  = 2_000_000
	ShortTraceBranches = 500_000
)

// specBiasTargets mirrors the variance of the paper's Fig. 2 across the
// 20 SPEC traces (roughly 10-70% of the dynamic stream biased).
var specBiasTargets = [20]float64{
	0.38, 0.25, 0.62, 0.17, 0.25, 0.30, 0.70, 0.35, 0.45, 0.60,
	0.48, 0.20, 0.22, 0.35, 0.45, 0.50, 0.30, 0.40, 0.15, 0.33,
}

func specSPEC(i int) Spec {
	p := profile{}
	longSet := map[int]bool{0: true, 2: true, 3: true, 6: true, 9: true, 10: true, 15: true, 17: true}
	p.parity(0.03, 3, 6)
	if !longSet[i] {
		p.noise(0.008, 6, 0.5, 4)
	}

	// Low-bias traces dilute the correlation padding with alternating
	// non-biased sites so the Fig. 2 target stays reachable.
	ne := 0
	switch {
	case specBiasTargets[i] < 0.20:
		ne = 1 // every pad non-biased
	case specBiasTargets[i] < 0.30:
		ne = 2
	}

	// Short- and mid-range correlations everywhere.
	p.corr(0.03, 12, 4, 0.01, 6, ne)
	p.corr(0.03, 60, 4, 0.01, 10, ne)

	// Long-distance correlations: the traces the paper singles out as
	// long-history-sensitive (SPEC00/02/03/06/09/10/15/17) get braided
	// deep pairs that only long (or bias-free-compressed) histories can
	// capture.
	if longSet[i] {
		// Deep chains (gap beyond a 10-table TAGE's 195-bit reach)
		// dominate these traces, plus a mid chain beyond a 4/5-table
		// TAGE's reach. Chains in lower-bias traces mix non-biased
		// padding so the Fig. 2 target stays reachable.
		chainNE := 0
		if specBiasTargets[i] < 0.5 {
			chainNE = 2
		}
		p.chain(0.42, 20, 200+2*i, 16, chainNE)
		p.chain(0.14, 8, 40, 10, chainNE)
		p.chain(0.10, 8, 80, 12, chainNE)
		p.braid(0.05, 2, 272+2*i, 32, 16)
	} else {
		p.corr(0.08, 150+2*i, 3, 0.01, 12, ne)
		p.chain(0.08, 8, 40, 10, ne)
		p.chain(0.06, 8, 80, 12, ne)
	}

	// Repeat-flooded correlations (recency-stack fodder) for the traces
	// the paper credits to the RS optimization (SPEC03/14/18).
	if i == 3 || i == 14 || i == 18 {
		p.corr(0.12, 220, 4, 0.01, 8, 2)
		p.selfCorr(0.02, 4, 6)
	}

	// SPEC07: dominated by local-history branches that the unfiltered
	// history of a 15-table TAGE captures but a recency stack cannot.
	if i == 7 {
		p.local(0.10, 5, 8)
		p.selfCorr(0.08, 7, 8)
	}

	p.posLoop(0.02, 24)
	if ne == 0 {
		p.constLoop(0.04, 21+i%5, 2)
		p.funcCall(0.05, 4)
	}
	p.fill(specBiasTargets[i], 40+8*i, longSet[i])

	return Spec{
		Name:     specName("SPEC", i, 2),
		Family:   SPEC,
		Seed:     rng.Hash64(uint64(1000 + i)),
		Branches: LongTraceBranches,
		profile:  p,
	}
}

func specFP(i int) Spec {
	p := profile{}
	// FP codes: heavily biased, loop-dominated, very predictable.
	p.constLoop(0.14, 16+4*i, 3)
	p.constLoop(0.06, 50, 2)
	p.parity(0.02, 2, 4)
	p.corr(0.08, 90+30*i, 2, 0.005, 8, 0)
	p.noise(0.004, 3, 0.5, 3)
	if i == 0 {
		// FP1: sensitive to dynamic bias detection (§VI-D): phase flips
		// turn biased branches non-biased mid-run.
		p.phase(0.07, 6, 6000, 6)
	}
	if i == 1 {
		// FP2: local-history branches (§VI-D).
		p.selfCorr(0.09, 6, 8)
	}
	p.fill(0.56+0.04*float64(i%3), 30, false)
	return Spec{
		Name:     specName("FP", i+1, 0),
		Family:   FP,
		Seed:     rng.Hash64(uint64(2000 + i)),
		Branches: ShortTraceBranches,
		profile:  p,
	}
}

func specINT(i int) Spec {
	p := profile{}
	p.parity(0.03, 4, 8)
	p.corr(0.07, 25, 2, 0.01, 6, 0)
	p.corr(0.08, 140+40*i, 3, 0.01, 10, 0)
	if i == 0 || i == 3 || i == 4 {
		// INT1/INT4/INT5 are among the long-history traces in Fig. 11.
		p.chain(0.35, 14, 200+10*i, 16, 0)
	}
	p.posLoop(0.04, 20)
	p.funcCall(0.06, 3)
	p.noise(0.012, 8, 0.5, 4)
	p.constLoop(0.04, 13+2*i, 2)
	p.fill(0.42+0.03*float64(i%4), 60, i == 0 || i == 3 || i == 4)
	return Spec{
		Name:     specName("INT", i+1, 0),
		Family:   INT,
		Seed:     rng.Hash64(uint64(3000 + i)),
		Branches: ShortTraceBranches,
		profile:  p,
	}
}

func specMM(i int) Spec {
	p := profile{}
	p.constLoop(0.12, 32+8*i, 3)
	p.posLoop(0.08, 28)
	p.parity(0.03, 3, 6)
	p.corr(0.07, 70+25*i, 2, 0.01, 8, 0)
	p.noise(0.008, 5, 0.5, 4)
	if i == 2 {
		// MM3 benefits from bias-free history (§VI-B).
		p.chain(0.30, 12, 230, 14, 0)
	}
	if i == 4 {
		// MM5: local-history heavy and sensitive to dynamic detection.
		p.selfCorr(0.10, 8, 8)
		p.phase(0.05, 4, 5000, 6)
	}
	p.fill(0.35+0.06*float64(i%3), 36, i == 2)
	return Spec{
		Name:     specName("MM", i+1, 0),
		Family:   MM,
		Seed:     rng.Hash64(uint64(4000 + i)),
		Branches: ShortTraceBranches,
		profile:  p,
	}
}

func specSERV(i int) Spec {
	p := profile{}
	// Server codes: huge branch footprint, large biased fraction, and
	// phase changes that punish dynamic bias detection.
	p.parity(0.03, 5, 8)
	p.corr(0.07, 40, 2, 0.02, 20, 0)
	p.corr(0.07, 200+50*i, 3, 0.02, 24, 0)
	p.funcCall(0.06, 5)
	p.noise(0.014, 20, 0.5, 5)
	phaseShare := 0.04
	footShare := 0.06
	if i == 2 {
		// SERV3 suffers most from dynamic detection (§VI-D): more
		// phase-flipping branches and a footprint far beyond the BST's
		// 8192 entries, so classification churns from aliasing.
		phaseShare = 0.12
		footShare = 0.18
	}
	p.phase(phaseShare, 12, 5000, 8)
	p.bigFoot(footShare, 16384+4096*i, 8)
	p.fill(0.58+0.03*float64(i), 400+100*i, false)
	return Spec{
		Name:     specName("SERV", i+1, 0),
		Family:   SERV,
		Seed:     rng.Hash64(uint64(5000 + i)),
		Branches: ShortTraceBranches,
		profile:  p,
	}
}

func specName(prefix string, n, pad int) string {
	s := ""
	if pad == 2 && n < 10 {
		s = "0"
	}
	return prefix + s + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// families lists the suite's trace families in reporting order: each
// family's traces are numbered from first, and spec builds the i-th
// (from 0) of its count traces.
var families = []struct {
	family       Family
	first, count int
	spec         func(i int) Spec
}{
	{SPEC, 0, 20, specSPEC},
	{FP, 1, 5, specFP},
	{INT, 1, 5, specINT},
	{MM, 1, 5, specMM},
	{SERV, 1, 5, specSERV},
}

// Traces returns the full 40-trace suite in the paper's reporting order:
// SPEC00..SPEC19, FP1..FP5, INT1..INT5, MM1..MM5, SERV1..SERV5.
func Traces() []Spec {
	out := make([]Spec, 0, 40)
	for _, f := range families {
		for i := 0; i < f.count; i++ {
			out = append(out, f.spec(i))
		}
	}
	return out
}

// ByName returns the spec with the given name. It builds only that
// spec: the family prefix and the number pick it, and the built spec's
// name must then equal name exactly (so "SPEC3" or "INT+1" miss).
func ByName(name string) (Spec, bool) {
	for _, f := range families {
		digits, ok := strings.CutPrefix(name, string(f.family))
		if !ok {
			continue
		}
		if i, err := strconv.Atoi(digits); err == nil && i >= f.first && i < f.first+f.count {
			if s := f.spec(i - f.first); s.Name == name {
				return s, true
			}
		}
		return Spec{}, false
	}
	return Spec{}, false
}

// Names returns the 40 trace names in reporting order.
func Names() []string {
	ts := Traces()
	names := make([]string, len(ts))
	for i, s := range ts {
		names[i] = s.Name
	}
	return names
}
