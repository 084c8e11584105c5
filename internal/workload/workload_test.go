package workload

import (
	"sort"
	"testing"

	"bfbp/internal/trace"
)

func TestSuiteShape(t *testing.T) {
	ts := Traces()
	if len(ts) != 40 {
		t.Fatalf("suite has %d traces, want 40", len(ts))
	}
	counts := map[Family]int{}
	seen := map[string]bool{}
	for _, s := range ts {
		counts[s.Family]++
		if seen[s.Name] {
			t.Fatalf("duplicate trace name %s", s.Name)
		}
		seen[s.Name] = true
	}
	want := map[Family]int{SPEC: 20, FP: 5, INT: 5, MM: 5, SERV: 5}
	for f, n := range want {
		if counts[f] != n {
			t.Fatalf("family %s has %d traces, want %d", f, counts[f], n)
		}
	}
	if ts[0].Name != "SPEC00" || ts[19].Name != "SPEC19" || ts[20].Name != "FP1" || ts[39].Name != "SERV5" {
		t.Fatalf("ordering wrong: %s %s %s %s", ts[0].Name, ts[19].Name, ts[20].Name, ts[39].Name)
	}
}

// TestByName checks that ByName, which builds only the named spec,
// returns the spec Traces lists under that name for each of the 40
// names (the same fields and the same first 10,000 streamed records),
// and misses every near miss.
func TestByName(t *testing.T) {
	for _, want := range Traces() {
		got, ok := ByName(want.Name)
		if !ok || got.Name != want.Name || got.Family != want.Family ||
			got.Seed != want.Seed || got.Branches != want.Branches {
			t.Fatalf("ByName(%s) = %v %v seed %#x %d branches, %v; Traces has %v %v seed %#x %d branches",
				want.Name, got.Name, got.Family, got.Seed, got.Branches, ok, want.Name, want.Family, want.Seed, want.Branches)
		}
		g, err := trace.Collect(got.Stream(10000))
		if err != nil {
			t.Fatal(err)
		}
		w, err := trace.Collect(want.Stream(10000))
		if err != nil {
			t.Fatal(err)
		}
		if len(g) != len(w) {
			t.Fatalf("%s: ByName's spec streams %d records, Traces' %d", want.Name, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				t.Fatalf("%s: record %d = %+v, Traces' spec streams %+v", want.Name, i, g[i], w[i])
			}
		}
	}
	for _, name := range []string{"SPEC3", "SPEC20", "FP0", "INT+1", "", "NOPE", "SERV", "MM05", "spec03"} {
		if s, ok := ByName(name); ok {
			t.Fatalf("ByName(%q) = %s, want a miss", name, s.Name)
		}
	}
}

func TestNames(t *testing.T) {
	n := Names()
	if len(n) != 40 || n[0] != "SPEC00" || n[39] != "SERV5" {
		t.Fatalf("Names() wrong: %v", n[:3])
	}
}

func TestGenerateDeterministic(t *testing.T) {
	s, _ := ByName("INT2")
	a := s.GenerateN(20000)
	b := s.GenerateN(20000)
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("records differ at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestGenerateLength(t *testing.T) {
	s, _ := ByName("FP3")
	tr := s.GenerateN(50000)
	if len(tr) < 50000 || len(tr) > 55000 {
		t.Fatalf("generated %d branches, want ~50000", len(tr))
	}
}

func TestGenerateValidRecords(t *testing.T) {
	s, _ := ByName("SERV1")
	tr := s.GenerateN(30000)
	for i, rec := range tr {
		if rec.PC == 0 {
			t.Fatalf("record %d has zero PC", i)
		}
		if rec.Instret < 1 || rec.Instret > 10 {
			t.Fatalf("record %d instret %d out of range", i, rec.Instret)
		}
	}
}

func TestTracesDiffer(t *testing.T) {
	a, _ := ByName("SPEC00")
	b, _ := ByName("SPEC01")
	ta := a.GenerateN(5000)
	tb := b.GenerateN(5000)
	same := 0
	for i := 0; i < 5000; i++ {
		if ta[i].PC == tb[i].PC && ta[i].Taken == tb[i].Taken {
			same++
		}
	}
	if same > 2500 {
		t.Fatalf("SPEC00 and SPEC01 overlap on %d/5000 records", same)
	}
}

func TestBiasProfileVariesAcrossSuite(t *testing.T) {
	// Fig. 2 shape: biased fraction should vary widely across the suite,
	// from ~10% to ~70%.
	var lo, hi = 2.0, -1.0
	for _, name := range []string{"SPEC02", "SPEC06", "SPEC18", "SPEC03", "FP1", "SERV2"} {
		s, _ := ByName(name)
		st, err := ProfileBias(s.Stream(60000))
		if err != nil {
			t.Fatal(err)
		}
		f := st.DynamicFraction()
		if f < lo {
			lo = f
		}
		if f > hi {
			hi = f
		}
		t.Logf("%s: dynamic biased %.1f%% (static %.1f%%, %d sites)",
			name, 100*f, 100*st.StaticFraction(), st.StaticSites)
	}
	if hi < 0.45 {
		t.Fatalf("max biased fraction %.2f too low; Fig. 2 needs traces near 60-75%%", hi)
	}
	if lo > 0.35 {
		t.Fatalf("min biased fraction %.2f too high; Fig. 2 needs traces near 10-20%%", lo)
	}
}

func TestHighBiasTraces(t *testing.T) {
	for _, name := range []string{"SPEC02", "SPEC06", "SPEC09"} {
		s, _ := ByName(name)
		st, err := ProfileBias(s.Stream(60000))
		if err != nil {
			t.Fatal(err)
		}
		if f := st.DynamicFraction(); f < 0.40 {
			t.Errorf("%s dynamic biased fraction = %.2f, want >= 0.40", name, f)
		}
	}
}

func TestProfileBiasCounts(t *testing.T) {
	tr := trace.Slice{
		{PC: 1, Taken: true, Instret: 5},
		{PC: 1, Taken: true, Instret: 5},
		{PC: 2, Taken: true, Instret: 5},
		{PC: 2, Taken: false, Instret: 5},
		{PC: 3, Taken: false, Instret: 5},
	}
	st, err := ProfileBias(tr.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if st.StaticSites != 3 || st.StaticBiased != 2 {
		t.Fatalf("static = %d/%d, want 2/3 biased", st.StaticBiased, st.StaticSites)
	}
	if st.DynamicBranches != 5 || st.DynamicBiased != 3 {
		t.Fatalf("dynamic = %d/%d, want 3/5 biased", st.DynamicBiased, st.DynamicBranches)
	}
	if st.StaticFraction() < 0.66 || st.StaticFraction() > 0.67 {
		t.Fatalf("static fraction = %v", st.StaticFraction())
	}
	if st.DynamicFraction() != 0.6 {
		t.Fatalf("dynamic fraction = %v, want 0.6", st.DynamicFraction())
	}
}

func TestProfileBiasEmpty(t *testing.T) {
	st, err := ProfileBias(trace.Slice{}.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if st.StaticFraction() != 0 || st.DynamicFraction() != 0 {
		t.Fatal("empty trace must not divide by zero")
	}
}

// Sorted returns a copy of specs sorted by family then name.
func Sorted(specs []Spec) []Spec {
	out := append([]Spec(nil), specs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Family != out[j].Family {
			return out[i].Family < out[j].Family
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func TestSortedStable(t *testing.T) {
	ts := Sorted(Traces())
	if len(ts) != 40 {
		t.Fatalf("Sorted changed length: %d", len(ts))
	}
	for i := 1; i < len(ts); i++ {
		if ts[i-1].Family == ts[i].Family && ts[i-1].Name > ts[i].Name {
			t.Fatal("Sorted not sorted within family")
		}
	}
}

func TestSpecString(t *testing.T) {
	s, _ := ByName("MM4")
	if s.String() == "" {
		t.Fatal("String empty")
	}
}

// phaseChurn counts the dynamic-stream share of sites that look completely
// biased over a short prefix but are non-biased over the full run — the
// branches whose mid-run reclassification perturbs dynamic bias detection.
func phaseChurn(t *testing.T, name string, n int) float64 {
	t.Helper()
	s, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown trace %s", name)
	}
	full := s.GenerateN(n)
	prefix := full[:n/6]
	type info struct{ t, nt uint64 }
	pre := map[uint64]*info{}
	for _, r := range prefix {
		si := pre[r.PC]
		if si == nil {
			si = &info{}
			pre[r.PC] = si
		}
		if r.Taken {
			si.t++
		} else {
			si.nt++
		}
	}
	all := map[uint64]*info{}
	for _, r := range full {
		si := all[r.PC]
		if si == nil {
			si = &info{}
			all[r.PC] = si
		}
		if r.Taken {
			si.t++
		} else {
			si.nt++
		}
	}
	var churn, total uint64
	for pc, a := range all {
		total += a.t + a.nt
		p := pre[pc]
		if p == nil {
			continue
		}
		prefixBiased := p.t == 0 || p.nt == 0
		fullBiased := a.t == 0 || a.nt == 0
		if prefixBiased && !fullBiased {
			churn += a.t + a.nt
		}
	}
	return float64(churn) / float64(total)
}

func TestServ3HasMorePhaseChurn(t *testing.T) {
	c1 := phaseChurn(t, "SERV1", 120000)
	c3 := phaseChurn(t, "SERV3", 120000)
	t.Logf("phase churn: SERV1 %.1f%%, SERV3 %.1f%%", 100*c1, 100*c3)
	if c3 <= c1 {
		t.Errorf("SERV3 churn (%.3f) should exceed SERV1 (%.3f): §VI-D dynamic-detection pathology", c3, c1)
	}
}

func TestReseedVariants(t *testing.T) {
	s, _ := ByName("INT3")
	v0 := s.Reseed(0)
	if v0.Seed != s.Seed {
		t.Fatal("variant 0 must keep the original seed")
	}
	v1 := s.Reseed(1)
	v2 := s.Reseed(2)
	if v1.Seed == s.Seed || v2.Seed == s.Seed || v1.Seed == v2.Seed {
		t.Fatal("variants must have distinct seeds")
	}
	// Same structure: bias profiles should be close across variants.
	p0, err := ProfileBias(s.Stream(40000))
	if err != nil {
		t.Fatal(err)
	}
	p1, err := ProfileBias(v1.Stream(40000))
	if err != nil {
		t.Fatal(err)
	}
	d := p0.DynamicFraction() - p1.DynamicFraction()
	if d < -0.1 || d > 0.1 {
		t.Fatalf("reseeded bias fraction drifted: %.3f vs %.3f",
			p0.DynamicFraction(), p1.DynamicFraction())
	}
	// Different outcomes: the records must differ.
	a := s.GenerateN(5000)
	b := v1.GenerateN(5000)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("reseeded trace identical to original")
	}
}
