package bfbp_test

import (
	"strings"
	"testing"

	"bfbp"
	"bfbp/internal/sim"
)

// TestEveryPredictorProbesState is the tentpole's coverage guard: every
// registry predictor must implement the optional StateProbe interface,
// advertise it as a capability tag, and — after a short training run —
// report real table or weight state (static predictors excepted). The
// run is explained, so it also checks Fig. 12's provider histogram: a
// TAGE-class predictor's decision trace credits exactly one base or
// tagged bank per branch, every other family attributes no bank, and a
// tagged bank reaches at least as many raw branches as its history bits
// (exactly as many without the bias-free compression).
func TestEveryPredictorProbesState(t *testing.T) {
	tr := genTrace(t, "INT1", 20_000)
	for _, info := range bfbp.Predictors() {
		caps := info.Capabilities()
		if caps.StateProbe == nil {
			t.Errorf("%s: no StateProbe", info.Name)
			continue
		}
		found := false
		for _, n := range caps.Names() {
			if n == "state-probe" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: Capabilities().Names() omits \"state-probe\"", info.Name)
		}
		p := info.New()
		st, err := bfbp.Run(p, tr.Stream(), bfbp.Options{Explain: true})
		if err != nil {
			t.Errorf("%s: run: %v", info.Name, err)
			continue
		}
		ts := bfbp.Capabilities(p).StateProbe.ProbeState()
		if ts.Predictor != p.Name() {
			t.Errorf("%s: sample names predictor %q", info.Name, ts.Predictor)
		}
		checkProviderBanks(t, info.Name, ts, st)
		if strings.HasPrefix(info.Name, "static-") {
			continue
		}
		if len(ts.Banks) == 0 && len(ts.Weights) == 0 {
			t.Errorf("%s: trained sample carries no banks and no weights", info.Name)
			continue
		}
		trained := false
		for _, b := range ts.Banks {
			if b.Entries <= 0 && b.Kind != "" {
				t.Errorf("%s: bank %s has no capacity", info.Name, b.Label())
			}
			if b.Live > b.Entries {
				t.Errorf("%s: bank %s live %d > entries %d", info.Name, b.Label(), b.Live, b.Entries)
			}
			if b.Live > 0 {
				trained = true
			}
		}
		for _, w := range ts.Weights {
			if w.Live > w.Weights || w.Saturated > w.Weights {
				t.Errorf("%s: weights %s live %d / saturated %d out of %d",
					info.Name, w.Name, w.Live, w.Saturated, w.Weights)
			}
			if w.Live > 0 {
				trained = true
			}
		}
		if !trained {
			t.Errorf("%s: nothing live after 20K branches", info.Name)
		}
	}
}

// checkProviderBanks asserts the provider-hit invariant of one
// explained run and the reach invariant of its trained state sample.
func checkProviderBanks(t *testing.T, name string, ts sim.TableStats, st bfbp.Stats) {
	t.Helper()
	var bankHits []uint64
	if st.Provenance != nil {
		bankHits = st.Provenance.BankHits
	}
	if !strings.Contains(name, "tage") {
		if bankHits != nil {
			t.Errorf("%s: non-TAGE predictor attributes bank hits %v", name, bankHits)
		}
		return
	}
	var hits uint64
	for _, h := range bankHits {
		hits += h
	}
	if hits != st.Branches {
		t.Errorf("%s: base+tagged hits %d, want one per branch (%d)", name, hits, st.Branches)
	}
	bf := strings.HasPrefix(name, "bf-")
	providers := 0
	for _, b := range ts.Banks {
		switch b.Kind {
		case "base":
			providers++
		case "tagged":
			providers++
			if b.HistLen <= 0 || b.Reach < b.HistLen || (!bf && b.Reach != b.HistLen) {
				t.Errorf("%s: bank %s reach %d from %d history bits", name, b.Label(), b.Reach, b.HistLen)
			}
		}
	}
	if len(bankHits) != providers {
		t.Errorf("%s: %d bank-hit counts for %d base and tagged banks", name, len(bankHits), providers)
	}
}

// TestProbeStateBitExact pins the observation-only contract at the
// public API: for a cross-section of predictor families, a run sampled
// every 8192 branches must reproduce the unprobed run's counters
// exactly.
func TestProbeStateBitExact(t *testing.T) {
	tr := genTrace(t, "SERV1", 60_000)
	for _, name := range []string{"bimodal", "yags", "o-gehl", "tage-4", "bf-tage-4", "bf-neural"} {
		info, err := bfbp.PredictorByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p1 := info.New()
		plain, err := bfbp.Run(p1, tr.Stream(), bfbp.Options{Warmup: 6_000})
		if err != nil {
			t.Fatal(err)
		}
		p2 := info.New()
		samples := 0
		probed, err := bfbp.Run(p2, tr.Stream(), bfbp.Options{
			Warmup:          6_000,
			ProbeStateEvery: 8192,
			OnEvent: func(ev sim.Event) {
				if _, ok := ev.(sim.TableStats); ok {
					samples++
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if samples == 0 {
			t.Errorf("%s: no state samples fired", name)
		}
		if plain.Branches != probed.Branches || plain.Mispredicts != probed.Mispredicts {
			t.Errorf("%s: probing changed the run: plain %d/%d, probed %d/%d",
				name, plain.Branches, plain.Mispredicts, probed.Branches, probed.Mispredicts)
		}
	}
}
