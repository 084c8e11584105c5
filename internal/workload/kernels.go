package workload

import "bfbp/internal/rng"

// padBiased emits bursts of completely biased branches drawn from a pool
// of sites. These are the branches the Bias-Free predictor filters out of
// its history.
type padBiased struct {
	pcs   []uint64
	dirs  []bool
	burst int
	pos   int
}

func newPadBiased(r *rng.SplitMix64, reg *region, sites, burst int) *padBiased {
	base := reg.alloc(sites)
	k := &padBiased{burst: burst}
	for i := 0; i < sites; i++ {
		k.pcs = append(k.pcs, base+uint64(i)*4)
		k.dirs = append(k.dirs, r.Bool(0.6)) // mix of always-taken / always-not
	}
	return k
}

func (k *padBiased) step(e *emitter) {
	for i := 0; i < k.burst; i++ {
		j := k.pos % len(k.pcs)
		pc := k.pcs[j]
		e.emit(pc, k.dirs[j], pc+16)
		k.pos++
	}
}

// emitInline lets other kernels embed biased padding inside their own
// atomic bursts.
func (k *padBiased) emitInline(e *emitter, n int) {
	for i := 0; i < n; i++ {
		j := k.pos % len(k.pcs)
		pc := k.pcs[j]
		e.emit(pc, k.dirs[j], pc+16)
		k.pos++
	}
}

// padNoisy embeds repeated dynamic instances of a handful of non-biased
// branch sites, each following a simple alternating pattern (real
// non-biased branches are patterned, not coin flips). A bias-free history
// without a recency stack fills up with these repeats; the recency stack
// collapses them to one entry per site (§III-B). They also flood an
// unfiltered TAGE history.
type padNoisy struct {
	pcs   []uint64
	state []bool
	pos   int
}

func newPadNoisy(r *rng.SplitMix64, reg *region, sites int) *padNoisy {
	base := reg.alloc(sites)
	k := &padNoisy{}
	for i := 0; i < sites; i++ {
		k.pcs = append(k.pcs, base+uint64(i)*4)
		k.state = append(k.state, r.Bool(0.5))
	}
	return k
}

// reset restores a deterministic phase so that kernels emitting atomic
// rounds see identical padding sequences every round.
func (k *padNoisy) reset() {
	k.pos = 0
	for i := range k.state {
		k.state[i] = i%2 == 0
	}
}

func (k *padNoisy) emitInline(e *emitter, n int) {
	for i := 0; i < n; i++ {
		j := k.pos % len(k.pcs)
		pc := k.pcs[j]
		e.emit(pc, k.state[j], pc+16)
		k.state[j] = !k.state[j]
		k.pos++
	}
}

func (k *padNoisy) step(e *emitter) { k.emitInline(e, 8) }

// corrPair is the core long-distance correlation kernel: a source branch S
// resolves randomly, `distance` padding branches execute, then a target
// branch T resolves identically to S (optionally inverted, with a small
// noise probability). When the padding is biased, only a bias-free history
// can carry S's outcome to T within a modest history length; when the
// padding repeats a few non-biased sites, only the recency stack can.
//
// A preRoll of additional padding is emitted *before* the source, so that
// a history window somewhat longer than the correlation distance still
// sees deterministic content — as it would inside a real loop nest or
// call chain. Without it, tag-based long-history predictors could never
// converge, because the bits just beyond the source would come from
// whatever unrelated kernel ran previously.
type corrPair struct {
	srcPC      uint64
	dstPCs     []uint64
	dstPol     []bool
	distance   int
	preRoll    int
	noise      float64
	biasedPad  *padBiased
	noisyPad   *padNoisy
	noisyEvery int // every n-th pad branch is noisy (0 = all biased)
	r          *rng.SplitMix64
}

func newCorrPair(r *rng.SplitMix64, reg *region, distance, preRoll, dstCount int, noise float64, padSites, noisyEvery int) *corrPair {
	if dstCount < 1 {
		dstCount = 1
	}
	base := reg.alloc(1 + dstCount)
	k := &corrPair{
		srcPC:      base,
		distance:   distance,
		preRoll:    preRoll,
		noise:      noise,
		noisyEvery: noisyEvery,
		r:          r.Fork(base + 1),
	}
	for i := 0; i < dstCount; i++ {
		k.dstPCs = append(k.dstPCs, base+uint64(i+1)*4)
		k.dstPol = append(k.dstPol, r.Bool(0.5))
	}
	k.biasedPad = newPadBiased(r, reg, padSites, 1)
	if noisyEvery > 0 {
		k.noisyPad = newPadNoisy(r, reg, 4)
	}
	return k
}

func (k *corrPair) step(e *emitter) {
	// Restart the pad cycle each round so the padding sequence between
	// (and before) the correlated pair is identical every execution, as
	// it would be for a fixed code path.
	k.biasedPad.pos = 0
	if k.noisyPad != nil {
		k.noisyPad.reset()
	}
	k.pads(e, k.preRoll)
	src := k.r.Bool(0.5)
	e.emit(k.srcPC, src, k.srcPC+64)
	k.pads(e, k.distance)
	for i, pc := range k.dstPCs {
		out := src != k.dstPol[i]
		if k.noise > 0 && k.r.Bool(k.noise) {
			out = !out
		}
		e.emit(pc, out, pc+64)
	}
}

func (k *corrPair) pads(e *emitter, n int) {
	for i := 0; i < n; i++ {
		if k.noisyEvery > 0 && i%k.noisyEvery == k.noisyEvery-1 {
			k.noisyPad.emitInline(e, 1)
		} else {
			k.biasedPad.emitInline(e, 1)
		}
	}
}

// braid interleaves several independent long-distance correlations in one
// padded round: sources S0..SB-1 execute near the round start, and after
// `distance` padding branches the targets D0..DB-1 resolve according to
// their own source. Braiding multiplies the density of genuinely
// long-range predictions per round — the way real traces contain many
// distinct correlated sites — at the cost of a few bits of cross-pair
// context entropy (each target's history window also sees the other
// sources).
type braid struct {
	srcPCs  []uint64
	dstPCs  []uint64
	pol     []bool
	vals    []bool
	dist    int
	preRoll int
	spread  int
	pad     *padBiased
	r       *rng.SplitMix64
}

func newBraid(r *rng.SplitMix64, reg *region, pairs, distance, spread, padSites int) *braid {
	base := reg.alloc(2 * pairs)
	k := &braid{
		dist:   distance,
		spread: spread,
		r:      rng.New(base ^ 0xB4A1D),
		vals:   make([]bool, pairs),
	}
	for i := 0; i < pairs; i++ {
		k.srcPCs = append(k.srcPCs, base+uint64(i)*4)
		k.dstPCs = append(k.dstPCs, base+uint64(pairs+i)*4)
		k.pol = append(k.pol, r.Bool(0.5))
	}
	// The deepest source sits at distance + (pairs-1)*(spread+1) +
	// targets-so-far from its target; budget the pre-roll for that.
	maxDist := distance + (pairs-1)*(spread+1) + (pairs-1)*(spread+1)
	k.preRoll = safeRoundDepth(maxDist) - maxDist
	if k.preRoll < 8 {
		k.preRoll = 8
	}
	k.pad = newPadBiased(r, reg, padSites, 1)
	return k
}

func (k *braid) step(e *emitter) {
	k.pad.pos = 0
	k.pad.emitInline(e, k.preRoll)
	for i, pc := range k.srcPCs {
		k.vals[i] = k.r.Bool(0.5)
		e.emit(pc, k.vals[i], pc+64)
		k.pad.emitInline(e, k.spread)
	}
	k.pad.emitInline(e, k.dist)
	for i, pc := range k.dstPCs {
		e.emit(pc, k.vals[i] != k.pol[i], pc+64)
		k.pad.emitInline(e, k.spread)
	}
}

// chain is the dominant deep-correlation structure of the long-history
// traces: a source branch followed by K correlated targets, each
// separated from the previous by `gap` completely biased padding
// branches. Every target needs a history reaching `gap` branches back
// (to the previous link), so with gap > L the whole chain is
// unpredictable for any conventional history of length L — while a
// bias-free history sees the previous link just a few positions away.
// This is the densest possible packing of "requires deep history"
// predictions: one per gap.
type chain struct {
	srcPC      uint64
	dstPCs     []uint64
	pol        []bool
	gap        int
	preRoll    int
	pad        *padBiased
	noisyPad   *padNoisy
	noisyEvery int
	r          *rng.SplitMix64
}

func newChain(r *rng.SplitMix64, reg *region, links, gap, preRoll, padSites, noisyEvery int) *chain {
	base := reg.alloc(1 + links)
	k := &chain{
		srcPC:      base,
		gap:        gap,
		preRoll:    preRoll,
		noisyEvery: noisyEvery,
		r:          rng.New(base ^ 0xC4A17),
	}
	for i := 0; i < links; i++ {
		k.dstPCs = append(k.dstPCs, base+uint64(i+1)*4)
		k.pol = append(k.pol, r.Bool(0.5))
	}
	k.pad = newPadBiased(r, reg, padSites, 1)
	if noisyEvery > 0 {
		k.noisyPad = newPadNoisy(r, reg, 4)
	}
	return k
}

func (k *chain) step(e *emitter) {
	k.pad.pos = 0
	if k.noisyPad != nil {
		k.noisyPad.reset()
	}
	k.pads(e, k.preRoll)
	src := k.r.Bool(0.5)
	e.emit(k.srcPC, src, k.srcPC+64)
	for i, pc := range k.dstPCs {
		k.pads(e, k.gap)
		e.emit(pc, src != k.pol[i], pc+64)
	}
}

func (k *chain) pads(e *emitter, n int) {
	for i := 0; i < n; i++ {
		if k.noisyEvery > 0 && i%k.noisyEvery == k.noisyEvery-1 {
			k.noisyPad.emitInline(e, 1)
		} else {
			k.pad.emitInline(e, 1)
		}
	}
}

// posLoop reproduces the paper's Fig. 4 code pattern: branch A resolves
// randomly; a loop of `count` iterations follows; inside it, branch X is
// taken only on iteration p and only when A was taken. Without positional
// history, every iteration of X sees the same filtered context and the
// rare taken instance is mispredicted; pos_hist separates the instances by
// their distance from A.
type posLoop struct {
	aPC, loopPC, xPC uint64
	count            int
	p                int
	r                *rng.SplitMix64
}

func newPosLoop(r *rng.SplitMix64, reg *region, count int) *posLoop {
	base := reg.alloc(3)
	return &posLoop{
		aPC:    base,
		loopPC: base + 4,
		xPC:    base + 8,
		count:  count,
		p:      r.Intn(count),
		r:      r.Fork(base + 2),
	}
}

func (k *posLoop) step(e *emitter) {
	a := k.r.Bool(0.5)
	e.emit(k.aPC, a, k.aPC+32)
	for i := 0; i < k.count; i++ {
		e.emit(k.xPC, a && i == k.p, k.xPC+32)
		e.emit(k.loopPC, i != k.count-1, k.loopPC-16) // backward branch
	}
}

// localPattern is a branch following a fixed periodic direction pattern —
// the classic local-history branch. The recency stack keeps only its
// latest occurrence, so BF predictors lose exactly the context a
// conventional (unfiltered) history provides when the branch re-executes
// in a tight loop; this is the §VI-D SPEC07/FP2 behaviour.
type localPattern struct {
	pc      uint64
	pattern []bool
	pos     int
	burst   int
}

func newLocalPattern(r *rng.SplitMix64, reg *region, period, burst int) *localPattern {
	base := reg.alloc(1)
	k := &localPattern{pc: base, burst: burst}
	k.pattern = make([]bool, period)
	taken := 0
	for i := range k.pattern {
		k.pattern[i] = r.Bool(0.5)
		if k.pattern[i] {
			taken++
		}
	}
	// Guarantee the pattern is non-biased and non-trivial.
	if taken == 0 {
		k.pattern[0] = true
	}
	if taken == period {
		k.pattern[0] = false
	}
	return k
}

func (k *localPattern) step(e *emitter) {
	for i := 0; i < k.burst; i++ {
		e.emit(k.pc, k.pattern[k.pos%len(k.pattern)], k.pc+32)
		k.pos++
	}
}

// constLoop is a loop with a constant trip count whose exit the loop-count
// predictor learns exactly; history predictors see a long taken run ending
// in a hard-to-time not-taken.
type constLoop struct {
	loopPC uint64
	body   *padBiased
	trips  int
}

func newConstLoop(r *rng.SplitMix64, reg *region, trips, bodySites int) *constLoop {
	base := reg.alloc(1)
	return &constLoop{
		loopPC: base,
		body:   newPadBiased(r, reg, bodySites, 1),
		trips:  trips,
	}
}

func (k *constLoop) step(e *emitter) {
	for i := 0; i < k.trips; i++ {
		k.body.emitInline(e, 2)
		e.emit(k.loopPC, i != k.trips-1, k.loopPC-64)
	}
}

// phaseBranch is biased in one direction for `phaseLen` dynamic instances,
// then flips for the next phase, and so on. The 2-bit BST FSM classifies
// it non-biased forever after the first flip even though it is
// locally perfectly biased — the dynamic-detection pathology that makes
// SERV3 suffer (§VI-D) and that probabilistic counters and static profiles
// repair.
type phaseBranch struct {
	pcs      []uint64
	phaseLen int
	count    int
	dir      bool
	burst    int
}

func newPhaseBranch(r *rng.SplitMix64, reg *region, sites, phaseLen, burst int) *phaseBranch {
	base := reg.alloc(sites)
	k := &phaseBranch{phaseLen: phaseLen, dir: r.Bool(0.5), burst: burst}
	for i := 0; i < sites; i++ {
		k.pcs = append(k.pcs, base+uint64(i)*4)
	}
	return k
}

func (k *phaseBranch) step(e *emitter) {
	for i := 0; i < k.burst; i++ {
		pc := k.pcs[k.count%len(k.pcs)]
		e.emit(pc, k.dir, pc+16)
		k.count++
		if k.count%k.phaseLen == 0 {
			k.dir = !k.dir
		}
	}
}

// bigFoot models the server-trace signature (§VI-D): an enormous branch
// footprint cycling through far more sites than a Branch Status Table can
// hold. Every site is completely biased — individually trivial — but
// direct-mapped BST entries are shared between many sites with opposite
// directions, so dynamic bias classification churns: entries flip through
// Taken/NotTaken/NonBiased as aliasing sites disagree, and genuinely
// biased branches get misclassified as non-biased, polluting the
// bias-free history structures. A static profile-assisted classification
// (exact, per-PC) is immune, which is the §VI-D contrast on SERV3.
type bigFoot struct {
	sites []uint64
	dirs  []bool
	pos   int
	burst int
}

func newBigFoot(r *rng.SplitMix64, reg *region, sites, burst int) *bigFoot {
	base := reg.alloc(sites)
	k := &bigFoot{burst: burst}
	for i := 0; i < sites; i++ {
		k.sites = append(k.sites, base+uint64(i)*4)
		k.dirs = append(k.dirs, r.Bool(0.5))
	}
	return k
}

func (k *bigFoot) step(e *emitter) {
	// One site per step, emitted as a burst (code locality), then stride
	// to a scattered next site so consecutive steps hit distant BST
	// entries.
	j := k.pos % len(k.sites)
	pc := k.sites[j]
	for i := 0; i < k.burst; i++ {
		e.emit(pc, k.dirs[j], pc+16)
	}
	k.pos += 97
}

// randomNoise emits genuinely unpredictable branches (probability p of
// taken). No predictor can beat min(p, 1-p) on these; they set the MPKI
// floor of each trace.
type randomNoise struct {
	pcs   []uint64
	p     float64
	burst int
	r     *rng.SplitMix64
	pos   int
}

func newRandomNoise(r *rng.SplitMix64, reg *region, sites int, p float64, burst int) *randomNoise {
	base := reg.alloc(sites)
	k := &randomNoise{p: p, burst: burst, r: r.Fork(base)}
	for i := 0; i < sites; i++ {
		k.pcs = append(k.pcs, base+uint64(i)*4)
	}
	return k
}

func (k *randomNoise) step(e *emitter) {
	for i := 0; i < k.burst; i++ {
		pc := k.pcs[k.pos%len(k.pcs)]
		e.emit(pc, k.r.Bool(k.p), pc+16)
		k.pos++
	}
}

// parityCorr is a short-range global-history branch: its outcome is the
// parity of the last `window` outcomes of a small set of patterned source
// branches (site j cycles with period j+2, so sources are themselves
// predictable, as real non-biased branches mostly are). Any global-history
// predictor with modest reach learns the whole cluster; it provides the
// baseline predictability shared by all predictors.
type parityCorr struct {
	srcPCs []uint64
	count  []int
	dstPC  uint64
	window int
	hist   []bool
}

func newParityCorr(r *rng.SplitMix64, reg *region, sources, window int) *parityCorr {
	base := reg.alloc(sources + 1)
	if window > sources {
		// A window spanning step boundaries would make the parity depend
		// on outcomes at unbounded distances (other kernels interleave
		// between steps); clamp so the parity is a function of the
		// sources emitted in the same step.
		window = sources
	}
	k := &parityCorr{window: window}
	for i := 0; i < sources; i++ {
		k.srcPCs = append(k.srcPCs, base+uint64(i)*4)
		k.count = append(k.count, r.Intn(7))
	}
	k.dstPC = base + uint64(sources)*4
	return k
}

func (k *parityCorr) step(e *emitter) {
	for i, pc := range k.srcPCs {
		k.count[i]++
		o := k.count[i]%(i+2) == 0
		e.emit(pc, o, pc+16)
		k.hist = append(k.hist, o)
	}
	if len(k.hist) > k.window {
		k.hist = k.hist[len(k.hist)-k.window:]
	}
	parity := false
	for _, b := range k.hist {
		parity = parity != b
	}
	e.emit(k.dstPC, parity, k.dstPC+16)
}

// cluster models the most common kind of easy non-biased branch: one
// leader branch tests a condition, then many follower branches re-test
// the same condition (each with a fixed polarity) within a short
// distance. Followers are non-biased yet trivially predictable from the
// leader through any global history, filtered or not.
//
// With period 0 the leader is a fresh random condition each time — an
// irreducible misprediction. With a positive period the leader follows a
// deterministic cycle: still non-biased, but bounded-entropy, the way
// most non-biased branches in real code are cross-correlated with the
// rest of the program (§V-B2).
type cluster struct {
	leaderPC  uint64
	followers []uint64
	polarity  []bool
	period    int
	count     int
	pads      int
	pad       *padBiased
	r         *rng.SplitMix64
}

func newCluster(r *rng.SplitMix64, reg *region, followers, period, pads int) *cluster {
	base := reg.alloc(followers + 1)
	k := &cluster{leaderPC: base, period: period, pads: pads, r: r.Fork(base + 13)}
	if period > 0 {
		k.count = r.Intn(period)
	}
	for i := 0; i < followers; i++ {
		k.followers = append(k.followers, base+uint64(i+1)*4)
		k.polarity = append(k.polarity, r.Bool(0.5))
	}
	if pads > 0 {
		k.pad = newPadBiased(r, reg, 6, 1)
	}
	return k
}

func (k *cluster) step(e *emitter) {
	var lead bool
	if k.period > 0 {
		k.count++
		lead = k.count%k.period < (k.period+1)/2
	} else {
		lead = k.r.Bool(0.5)
	}
	if k.pad != nil {
		k.pad.pos = 0
	}
	e.emit(k.leaderPC, lead, k.leaderPC+32)
	for i, pc := range k.followers {
		if k.pad != nil {
			k.pad.emitInline(e, k.pads)
		}
		e.emit(pc, lead != k.polarity[i], pc+32)
	}
}

// funcCall models a correlated pair separated by a "function call": the
// callee executes a mix of biased branches and a constant-trip inner loop,
// producing the interleaving the paper's introduction motivates ("if two
// correlated branches are separated by a function call containing many
// branches, a longer history is likely to capture the correlated branch").
type funcCall struct {
	srcPC, dstPC uint64
	callee       *constLoop
	calleePad    *padBiased
	depth        int
	invert       bool
	r            *rng.SplitMix64
}

func newFuncCall(r *rng.SplitMix64, reg *region, depth int) *funcCall {
	base := reg.alloc(2)
	return &funcCall{
		srcPC:     base,
		dstPC:     base + 4,
		callee:    newConstLoop(r, reg, 8, 3),
		calleePad: newPadBiased(r, reg, 12, 1),
		depth:     depth,
		invert:    r.Bool(0.5),
		r:         r.Fork(base + 3),
	}
}

func (k *funcCall) step(e *emitter) {
	src := k.r.Bool(0.5)
	e.emit(k.srcPC, src, k.srcPC+64)
	for i := 0; i < k.depth; i++ {
		k.callee.step(e)
		k.calleePad.emitInline(e, 6)
	}
	e.emit(k.dstPC, src != k.invert, k.dstPC+64)
}

// selfCorr is a branch whose outcome equals its own outcome `lag`
// occurrences earlier — a long local pattern. Its dynamic instances repeat
// with other branches interleaved, so an unfiltered global history that
// retains multiple instances can predict it while a recency-stack history
// (one instance only) cannot; a second §VI-D local-history behaviour.
type selfCorr struct {
	pc    uint64
	lag   int
	hist  []bool
	pad   *padBiased
	burst int
	r     *rng.SplitMix64
}

func newSelfCorr(r *rng.SplitMix64, reg *region, lag, burst int) *selfCorr {
	base := reg.alloc(1)
	k := &selfCorr{pc: base, lag: lag, burst: burst, r: r.Fork(base + 9)}
	k.pad = newPadBiased(r, reg, 4, 1)
	for i := 0; i < lag; i++ {
		k.hist = append(k.hist, k.r.Bool(0.5))
	}
	return k
}

func (k *selfCorr) step(e *emitter) {
	for i := 0; i < k.burst; i++ {
		out := k.hist[0]
		k.hist = append(k.hist[1:], out)
		e.emit(k.pc, out, k.pc+32)
		k.pad.emitInline(e, 2)
	}
}
