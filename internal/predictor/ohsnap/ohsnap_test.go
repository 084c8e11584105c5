package ohsnap

import (
	"testing"

	"bfbp/internal/rng"
	"bfbp/internal/sim"
	"bfbp/internal/trace"
	"bfbp/internal/workload"
)

func smallCfg() Config {
	return Config{
		Segments: []Segment{
			{Positions: 8, Rows: 1 << 9},
			{Positions: 24, Rows: 1 << 8},
		},
		BiasEntries: 1 << 8,
	}
}

func TestGeometry(t *testing.T) {
	p := New(smallCfg())
	if p.HistoryLength() != 32 {
		t.Fatalf("history length = %d, want 32", p.HistoryLength())
	}
}

func TestLearnsBiasedBranches(t *testing.T) {
	p := New(smallCfg())
	recs := make(trace.Slice, 30000)
	for i := range recs {
		pc := uint64(0x1000 + (i%32)*4)
		recs[i] = trace.Record{PC: pc, Taken: pc%12 != 0, Instret: 5}
	}
	st, err := sim.Run(p, recs.Stream(), sim.Options{Warmup: 3000})
	if err != nil {
		t.Fatal(err)
	}
	if st.MispredictRate() > 0.01 {
		t.Fatalf("rate = %.4f on biased stream, want ~0", st.MispredictRate())
	}
}

func TestLearnsCorrelationWithinReach(t *testing.T) {
	p := New(smallCfg())
	r := rng.New(2)
	var recs trace.Slice
	for n := 0; n < 8000; n++ {
		a := r.Bool(0.5)
		recs = append(recs, trace.Record{PC: 0x100, Taken: a, Instret: 5})
		for i := 0; i < 12; i++ {
			recs = append(recs, trace.Record{PC: uint64(0x200 + i*4), Taken: true, Instret: 5})
		}
		recs = append(recs, trace.Record{PC: 0x300, Taken: !a, Instret: 5})
	}
	st, err := sim.Run(p, recs.Stream(), sim.Options{Warmup: 20000, PerPC: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range st.TopOffenders(10) {
		if o.PC == 0x300 {
			rate := float64(o.Mispredicts) / float64(o.Count)
			if rate > 0.05 {
				t.Fatalf("in-reach correlated branch rate = %.3f, want ~0", rate)
			}
		}
	}
}

func TestFailsBeyondReach(t *testing.T) {
	p := New(smallCfg()) // history 32
	r := rng.New(3)
	var recs trace.Slice
	for n := 0; n < 4000; n++ {
		a := r.Bool(0.5)
		recs = append(recs, trace.Record{PC: 0x100, Taken: a, Instret: 5})
		for i := 0; i < 70; i++ {
			recs = append(recs, trace.Record{PC: uint64(0x200 + (i%48)*4), Taken: true, Instret: 5})
		}
		recs = append(recs, trace.Record{PC: 0x900, Taken: a, Instret: 5})
	}
	st, err := sim.Run(p, recs.Stream(), sim.Options{Warmup: 20000, PerPC: true})
	if err != nil {
		t.Fatal(err)
	}
	rate := -1.0
	for _, o := range st.TopOffenders(10) {
		if o.PC == 0x900 {
			rate = float64(o.Mispredicts) / float64(o.Count)
		}
	}
	if rate < 0.3 {
		t.Fatalf("beyond-reach branch rate = %.3f, want ~0.5", rate)
	}
}

func TestCoefficientsAdapt(t *testing.T) {
	p := New(smallCfg())
	before := p.Coefficient(0)
	// Pure noise at one PC: every position is uninformative, so
	// coefficients should drift downward from their initial values.
	r := rng.New(5)
	for i := 0; i < 60000; i++ {
		pc := uint64(0x100)
		p.Predict(pc)
		p.Update(pc, r.Bool(0.5), 0)
	}
	moved := false
	for i := 0; i < p.HistoryLength(); i++ {
		if p.Coefficient(i) != before {
			moved = true
			break
		}
	}
	if !moved {
		t.Fatal("coefficients never adapted")
	}
}

func TestDeterminism(t *testing.T) {
	mk := func() trace.Slice {
		r := rng.New(11)
		recs := make(trace.Slice, 5000)
		for i := range recs {
			recs[i] = trace.Record{PC: uint64(0x100 + (i%64)*4), Taken: r.Bool(0.4), Instret: 5}
		}
		return recs
	}
	a, _ := sim.Run(New(smallCfg()), mk().Stream(), sim.Options{})
	b, _ := sim.Run(New(smallCfg()), mk().Stream(), sim.Options{})
	if a.Mispredicts != b.Mispredicts {
		t.Fatalf("non-deterministic: %d vs %d", a.Mispredicts, b.Mispredicts)
	}
}

func TestDefault64KBBudget(t *testing.T) {
	p := New(Default64KB())
	b := p.Storage()
	if b.TotalBytes() > 72*1024 || b.TotalBytes() < 40*1024 {
		t.Fatalf("Default64KB = %d bytes, want roughly 64KB", b.TotalBytes())
	}
	if p.HistoryLength() != 128 {
		t.Fatalf("Default64KB history = %d, want 128", p.HistoryLength())
	}
}

func TestValidation(t *testing.T) {
	for _, cfg := range []Config{
		{},
		{Segments: []Segment{{Positions: 0, Rows: 64}}, BiasEntries: 64},
		{Segments: []Segment{{Positions: 4, Rows: 100}}, BiasEntries: 64},
		{Segments: []Segment{{Positions: 4, Rows: 64}}, BiasEntries: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

// suiteTrace returns the first n branches of the named workload trace.
func suiteTrace(tb testing.TB, name string, n int) trace.Slice {
	tb.Helper()
	for _, s := range workload.Traces() {
		if s.Name == name {
			return s.GenerateN(n)
		}
	}
	tb.Skipf("%s workload spec unavailable", name)
	return nil
}

// drive runs recs through p with each update lagging its prediction by
// delay branches, calling after once each Predict has put its
// checkpoint in flight. Updates still pending at the end are applied.
func drive(p *Predictor, recs trace.Slice, delay int, after func(i int, pc uint64, pred bool)) {
	var pending []trace.Record
	for i, rec := range recs {
		pred := p.Predict(rec.PC)
		after(i, rec.PC, pred)
		pending = append(pending, rec)
		if len(pending) > delay {
			u := pending[0]
			pending = pending[1:]
			p.Update(u.PC, u.Taken, u.Target)
		}
	}
	for _, u := range pending {
		p.Update(u.PC, u.Taken, u.Target)
	}
}

// refLookup is the per-position loop that lookup replaced, kept as its
// reference: Ring.At and a segment test at every position, the sum
// accumulated in order with a branch on each direction, and -1 marking
// a position the history has not populated. Its geometry comes from the
// configuration, not from the predictor's precomputed segment tables.
func refLookup(p *Predictor, pc uint64) (sum int32, idxs []int32, dirs []bool) {
	var segStart []int
	var segBase []int32
	var segMask []uint64
	total, pos := int32(0), 0
	for _, s := range p.cfg.Segments {
		segStart = append(segStart, pos)
		segBase = append(segBase, total)
		segMask = append(segMask, uint64(s.Rows-1))
		total += int32(s.Rows * s.Positions)
		pos += s.Positions
	}
	idxs, dirs = make([]int32, p.hlen), make([]bool, p.hlen)
	sum = int32(p.bias[(pc>>2)&p.biasMask]) * coeffInit >> coeffShift
	pch := rng.Hash64(pc >> 2)
	seg := 0
	for i := 0; i < p.hlen; i++ {
		if seg+1 < len(segStart) && i >= segStart[seg+1] {
			seg++
		}
		segPositions := i - segStart[seg]
		e, ok := p.ring.At(i + 1)
		if !ok {
			idxs[i] = -1
			continue
		}
		row := rng.Hash64(pch^uint64(e.HashedPC)<<1) & segMask[seg]
		idx := segBase[seg] + int32(segPositions)*int32(segMask[seg]+1) + int32(row)
		idxs[i] = idx
		dirs[i] = e.Taken
		contrib := int32(p.weights[idx]) * p.coeff[i] >> coeffShift
		if e.Taken {
			sum += contrib
		} else {
			sum -= contrib
		}
	}
	return sum, idxs, dirs
}

// TestLookupMatchesReference compares lookup with refLookup at every
// branch of a trace, warm-up (a history shorter than the 128 positions)
// included, under immediate and delayed updates: same sum, same
// populated count, and the same index and direction at every populated
// position.
func TestLookupMatchesReference(t *testing.T) {
	recs := suiteTrace(t, "SPEC03", 20000)
	for _, delay := range []int{0, 33} {
		for _, cfg := range []Config{Default64KB(), smallCfg()} {
			p := New(cfg)
			drive(p, recs, delay, func(i int, pc uint64, _ bool) {
				wantSum, wantIdx, wantDir := refLookup(p, pc)
				cp := p.lookup(pc)
				if want := min(p.hlen, p.ring.Len()); cp.n != want {
					t.Fatalf("delay %d hlen %d branch %d: n = %d, want %d", delay, p.hlen, i, cp.n, want)
				}
				if cp.sum != wantSum {
					t.Fatalf("delay %d hlen %d branch %d: sum = %d, reference %d", delay, p.hlen, i, cp.sum, wantSum)
				}
				for j := range wantIdx {
					if j >= cp.n {
						if wantIdx[j] != -1 {
							t.Fatalf("delay %d hlen %d branch %d: position %d populated in the reference but beyond n = %d", delay, p.hlen, i, j, cp.n)
						}
						continue
					}
					if cp.idxs[j] != wantIdx[j] || cp.dirs[j] != wantDir[j] {
						t.Fatalf("delay %d hlen %d branch %d position %d: (%d, %v), reference (%d, %v)",
							delay, p.hlen, i, j, cp.idxs[j], cp.dirs[j], wantIdx[j], wantDir[j])
					}
				}
			})
		}
	}
}

// TestExplainSumsToCheckpoint checks Explain against the sum that made
// each prediction, at every branch from the first on, with immediate and
// delayed updates: the full contribution list (bias plus every populated
// position, before TopWeightContribs cuts it) adds up to the
// checkpoint's sum, and Confidence is that sum's magnitude.
func TestExplainSumsToCheckpoint(t *testing.T) {
	recs := suiteTrace(t, "SPEC03", 20000)
	for _, delay := range []int{0, 33} {
		p := New(Default64KB())
		drive(p, recs, delay, func(i int, pc uint64, pred bool) {
			prov := p.Explain(pc)
			cp := p.inflight.Last(func(q *checkpoint) bool { return q.pc == pc })
			ws := p.contribs(cp)
			if len(ws) != cp.n+1 {
				t.Fatalf("delay %d branch %d: %d contributions for %d populated positions", delay, i, len(ws), cp.n)
			}
			var total int32
			for _, w := range ws {
				total += w.Weight
			}
			if total != cp.sum {
				t.Fatalf("delay %d branch %d: contributions sum to %d, checkpoint sum %d", delay, i, total, cp.sum)
			}
			mag := cp.sum
			if mag < 0 {
				mag = -mag
			}
			if prov.Confidence != mag {
				t.Fatalf("delay %d branch %d: Confidence = %d, |sum| = %d", delay, i, prov.Confidence, mag)
			}
			if prov.Prediction != pred {
				t.Fatalf("delay %d branch %d: Explain predicts %v, Predict returned %v", delay, i, prov.Prediction, pred)
			}
		})
	}
}

// BenchmarkPredictUpdate measures the Predict+Update path of the
// 64KB configuration on SPEC03.
func BenchmarkPredictUpdate(b *testing.B) {
	tr := suiteTrace(b, "SPEC03", 100000)
	p := New(Default64KB())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := tr[i%len(tr)]
		p.Predict(rec.PC)
		p.Update(rec.PC, rec.Taken, rec.Target)
	}
}
