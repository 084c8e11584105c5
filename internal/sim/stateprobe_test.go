package sim

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"bfbp/internal/obs"
	"bfbp/internal/workload"
)

// probeToy wraps the deterministic toy predictor with a StateProbe
// implementation that counts its own samples.
type probeToy struct {
	toyShare
	probes int
}

func (p *probeToy) ProbeState() TableStats {
	p.probes++
	live := 0
	for _, v := range p.table {
		if v != 0 {
			live++
		}
	}
	return TableStats{
		Predictor: p.Name(),
		Banks:     []BankStats{{Bank: 0, Kind: "pht", Entries: len(p.table), Live: live}},
	}
}

// The harness must sample ProbeState at batch boundaries — never
// mid-batch — every ProbeStateEvery branches, plus one final sample at
// run end carrying the exact final branch count.
func TestRunContextProbeStateFiring(t *testing.T) {
	spec, ok := workload.ByName("INT1")
	if !ok {
		t.Fatal("INT1 missing")
	}
	const total, every = 50_000, 8192
	p := &probeToy{}
	type sample struct {
		branches uint64
		banks    int
	}
	var samples []sample
	st, err := Run(p, spec.Stream(total), Options{
		ProbeStateEvery: every,
		OnEvent: func(ev Event) {
			ts := ev.(TableStats)
			if ts.Predictor != "toy" {
				t.Errorf("sample predictor = %q, want toy", ts.Predictor)
			}
			samples = append(samples, sample{ts.Branch, len(ts.Banks)})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.probes == 0 || len(samples) != p.probes {
		t.Fatalf("probes = %d, samples = %d", p.probes, len(samples))
	}
	// 50000/8192 interval crossings plus the final sample.
	if want := int(total/every) + 1; len(samples) != want {
		t.Fatalf("got %d samples, want %d", len(samples), want)
	}
	for i, s := range samples {
		if s.banks != 1 {
			t.Fatalf("sample %d carries %d banks, want 1", i, s.banks)
		}
		if i > 0 && s.branches <= samples[i-1].branches {
			t.Fatalf("samples not increasing: %v", samples)
		}
		if i < len(samples)-1 && s.branches%runBatchSize != 0 {
			t.Errorf("sample %d at branch %d, not a batch boundary", i, s.branches)
		}
	}
	if last := samples[len(samples)-1].branches; last != st.Branches {
		t.Fatalf("final sample at branch %d, want %d", last, st.Branches)
	}
}

// A predictor without StateProbe runs untouched under ProbeStateEvery:
// no samples, no error.
func TestRunContextProbeStateSkipsNonProbers(t *testing.T) {
	spec, ok := workload.ByName("INT1")
	if !ok {
		t.Fatal("INT1 missing")
	}
	calls := 0
	_, err := Run(&toyShare{}, spec.Stream(20_000), Options{
		ProbeStateEvery: 4096,
		OnEvent:         func(Event) { calls++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("OnEvent called %d times for a non-probing predictor", calls)
	}
}

// Probing must be observation-only end to end: a probed run's stats
// must equal an unprobed run's bit for bit.
func TestRunContextProbeStateBitExact(t *testing.T) {
	spec, ok := workload.ByName("SERV2")
	if !ok {
		t.Fatal("SERV2 missing")
	}
	plain, err := Run(&probeToy{}, spec.Stream(40_000), Options{Warmup: 4_000})
	if err != nil {
		t.Fatal(err)
	}
	probed, err := Run(&probeToy{}, spec.Stream(40_000), Options{
		Warmup:          4_000,
		ProbeStateEvery: 4096,
		OnEvent:         func(Event) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Branches != probed.Branches || plain.Mispredicts != probed.Mispredicts {
		t.Fatalf("probing changed the run: plain %d/%d, probed %d/%d",
			plain.Branches, plain.Mispredicts, probed.Branches, probed.Mispredicts)
	}
}

// With telemetry attached and ProbeStateEvery set, state samples must
// reach the receivers: occupancy gauges in the registry and tablestats
// journal events, per cell — from two cells running at once.
func TestEngineProbeStateSink(t *testing.T) {
	reg := obs.NewRegistry()
	m := NewEngineMetrics(reg)
	var journalBuf strings.Builder
	j := obs.NewJournal(&journalBuf)
	j.Clock = func() time.Time { return time.Unix(0, 0).UTC() }

	spec, ok := workload.ByName("MM1")
	spec2, ok2 := workload.ByName("INT1")
	if !ok || !ok2 {
		t.Fatal("MM1/INT1 missing")
	}
	eng := Engine{Workers: 2, Metrics: m, Journal: j}
	jobs := Matrix(
		[]TraceSource{spec.Source(30_000), spec2.Source(30_000)},
		[]PredictorSpec{{Name: "toy", New: func() Predictor { return &probeToy{} }}},
		Options{ProbeStateEvery: 8192},
	)
	if _, err := eng.Run(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var expo strings.Builder
	if err := reg.WritePrometheus(&expo); err != nil {
		t.Fatal(err)
	}
	if metric := `bfbp_table_occupancy{predictor="toy",bank="T0:pht"}`; !strings.Contains(expo.String(), metric) {
		t.Errorf("registry export missing %q:\n%s", metric, expo.String())
	}
	journal := journalBuf.String()
	if !strings.Contains(journal, `"event":"tablestats"`) {
		t.Fatalf("journal has no tablestats events:\n%s", journal)
	}
	if !strings.Contains(journal, `"kind":"pht"`) {
		t.Fatalf("tablestats events lost bank detail:\n%s", journal)
	}
}

// lockstep counts the samples the engine has delivered, so probed
// cells can be made to take turns.
type lockstep struct {
	mu   sync.Mutex
	cond sync.Cond
	seen int
}

func (l *lockstep) observed() {
	l.mu.Lock()
	l.seen++
	l.cond.Broadcast()
	l.mu.Unlock()
}

func (l *lockstep) await(n int) {
	l.mu.Lock()
	for l.seen < n {
		l.cond.Wait()
	}
	l.mu.Unlock()
}

// evictToy reports a tagged bank whose cumulative evictions grow by
// rate per update. Its k-th ProbeState waits until 2(k-1) samples have
// been delivered, so two such cells deliver their samples in rounds.
type evictToy struct {
	toyShare
	rate, evictions uint64
	probes          int
	steps           *lockstep
}

func (p *evictToy) Update(pc uint64, taken bool, target uint64) {
	p.toyShare.Update(pc, taken, target)
	p.evictions += p.rate
}

func (p *evictToy) ProbeState() TableStats {
	p.probes++
	p.steps.await(2 * (p.probes - 1))
	return TableStats{Banks: []BankStats{{Bank: 1, Kind: "tagged", Entries: 1, Evictions: p.evictions}}}
}

// The same (trace, predictor) cell listed twice and run at once must
// keep one eviction baseline per cell. With their samples interleaved,
// the tag-conflict counter must never fall and must end at the sum of
// both cells' final evictions.
func TestEngineDuplicateCellsKeepOwnEvictionBaselines(t *testing.T) {
	spec, ok := workload.ByName("MM1")
	if !ok {
		t.Fatal("MM1 missing")
	}
	steps := &lockstep{}
	steps.cond.L = &steps.mu
	job := func(rate uint64) Job {
		return Job{
			Predictor: PredictorSpec{Name: "evict", New: func() Predictor { return &evictToy{rate: rate, steps: steps} }},
			Source:    spec.Source(30_000),
		}
	}
	m := NewEngineMetrics(obs.NewRegistry())
	label := BankStats{Bank: 1, Kind: "tagged"}.Label()
	conflicts := m.tagConflicts.With("evict", label)
	var (
		mu   sync.Mutex
		last uint64
	)
	// The per-job OnEvent sees each sample before the engine forwards
	// it to the metrics, so it reads the counter as every earlier
	// sample, of either cell, left it.
	opt := Options{ProbeStateEvery: 8192, OnEvent: func(ev Event) {
		if _, ok := ev.(TableStats); !ok {
			return
		}
		mu.Lock()
		if v := conflicts.Value(); v < last {
			t.Errorf("bfbp_tag_conflicts_total fell from %d to %d", last, v)
		} else {
			last = v
		}
		mu.Unlock()
		steps.observed()
	}}
	eng := Engine{Workers: 2, Metrics: m, Options: opt}
	res, err := eng.Run(context.Background(), []Job{job(1), job(3)})
	if err != nil {
		t.Fatal(err)
	}
	want := res[0].Stats.Branches + 3*res[1].Stats.Branches
	if got := conflicts.Value(); got != want {
		t.Fatalf("bfbp_tag_conflicts_total{evict,%s} = %d, want %d", label, got, want)
	}
}
