// Package looppred implements the loop-count predictor used by ISL-TAGE
// and by the paper's BF-Neural configuration (§IV-B2): a small
// skewed-associative table that learns loops with a constant trip count
// and predicts their exit branch exactly. The paper's instance has 64
// entries and is 4-way skewed associative.
package looppred

import "bfbp/internal/rng"

const (
	tagBits     = 14
	iterBits    = 14
	confMax     = 7
	confValid   = 4 // predictions are used once confidence reaches this
	ageMax      = 255
	ageAllocate = 31
)

type entry struct {
	tag     uint32
	nbIter  uint32 // learned trip count (0 = unknown)
	curIter uint32
	conf    uint8
	age     uint8
	dir     bool // direction taken on loop-body iterations
	valid   bool
}

// Predictor is a loop-count predictor component. It is not a standalone
// sim.Predictor: the enclosing predictor consults it first and reports via
// the allocate hint whether its own prediction missed, which gates entry
// allocation exactly as in ISL-TAGE.
type Predictor struct {
	ways    int
	sets    int
	setMask uint32
	banks   [][]entry
}

// New returns a loop predictor with the given total entries and
// associativity. entries/ways must be a power of two.
func New(entries, ways int) *Predictor {
	if ways < 1 || entries < ways || entries%ways != 0 {
		panic("looppred: invalid geometry")
	}
	sets := entries / ways
	if sets&(sets-1) != 0 {
		panic("looppred: sets must be a power of two")
	}
	p := &Predictor{ways: ways, sets: sets, setMask: uint32(sets - 1)}
	p.banks = make([][]entry, ways)
	for w := range p.banks {
		p.banks[w] = make([]entry, sets)
	}
	return p
}

// NewDefault returns the paper's 64-entry, 4-way skewed configuration.
func NewDefault() *Predictor { return New(64, 4) }

// index returns the skewed set index for way w: each way hashes the PC
// differently, the defining property of skewed associativity.
func (p *Predictor) index(pc uint64, w int) uint32 {
	h := rng.Hash64(pc + uint64(w)*0x9e3779b97f4a7c15)
	return uint32(h) & p.setMask
}

func (p *Predictor) tag(pc uint64) uint32 {
	return uint32(rng.Hash64(pc)>>20) & (1<<tagBits - 1)
}

// lookup returns the entry matching pc, or nil.
func (p *Predictor) lookup(pc uint64) *entry {
	tg := p.tag(pc)
	for w := 0; w < p.ways; w++ {
		e := &p.banks[w][p.index(pc, w)]
		if e.valid && e.tag == tg {
			return e
		}
	}
	return nil
}

// Predict returns the loop predictor's direction for pc and whether that
// prediction is confident enough to use.
func (p *Predictor) Predict(pc uint64) (pred, valid bool) {
	e := p.lookup(pc)
	if e == nil || e.conf < confValid || e.nbIter == 0 {
		return false, false
	}
	if e.curIter+1 >= e.nbIter {
		return !e.dir, true // the exit iteration
	}
	return e.dir, true
}

// Update trains the predictor with a committed outcome. allocate should be
// true when the enclosing predictor mispredicted this branch; only then is
// a new entry considered, mirroring ISL-TAGE's allocation policy.
func (p *Predictor) Update(pc uint64, taken bool, allocate bool) {
	e := p.lookup(pc)
	if e == nil {
		if allocate {
			p.allocate(pc, taken)
		}
		return
	}
	// If the entry was confidently predicting and the outcome contradicts
	// the learned pattern, the pattern is stale: retrain from scratch.
	pred, valid := p.predictEntry(e)
	if valid && pred != taken {
		e.conf = 0
		e.nbIter = 0
		e.curIter = 0
		e.dir = taken
		if e.age > 0 {
			e.age--
		}
		return
	}
	if valid && pred == taken && e.age < ageMax {
		e.age++
	}
	if taken == e.dir {
		// Another body iteration.
		e.curIter++
		if e.nbIter != 0 && e.curIter >= e.nbIter {
			// The loop ran longer than the learned count: relearn.
			e.conf = 0
			e.nbIter = 0
		}
		if e.curIter >= 1<<iterBits-1 {
			// Trip count exceeds the hardware field: give up.
			e.valid = false
		}
		return
	}
	// Exit iteration observed.
	iters := e.curIter + 1
	if e.nbIter == iters {
		if e.conf < confMax {
			e.conf++
		}
	} else {
		e.nbIter = iters
		e.conf = 0
	}
	e.curIter = 0
}

func (p *Predictor) predictEntry(e *entry) (bool, bool) {
	if e.conf < confValid || e.nbIter == 0 {
		return false, false
	}
	if e.curIter+1 >= e.nbIter {
		return !e.dir, true
	}
	return e.dir, true
}

// allocate installs a fresh entry for pc, preferring an invalid or aged-out
// way; when every candidate is still young, ages decay instead (damped
// allocation, as in ISL-TAGE).
func (p *Predictor) allocate(pc uint64, taken bool) {
	var victim *entry
	for w := 0; w < p.ways; w++ {
		e := &p.banks[w][p.index(pc, w)]
		if !e.valid {
			victim = e
			break
		}
		if e.age == 0 && victim == nil {
			victim = e
		}
	}
	if victim == nil {
		for w := 0; w < p.ways; w++ {
			e := &p.banks[w][p.index(pc, w)]
			if e.age > 0 {
				e.age--
			}
		}
		return
	}
	*victim = entry{
		tag:   p.tag(pc),
		dir:   taken,
		age:   ageAllocate,
		valid: true,
	}
}

// StorageBits budgets each entry at tag + trip count + current count +
// confidence + age + direction + valid.
func (p *Predictor) StorageBits() int {
	perEntry := tagBits + 2*iterBits + 3 + 8 + 1 + 1
	return p.ways * p.sets * perEntry
}
