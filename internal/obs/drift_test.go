package obs

import (
	"math"
	"testing"
)

// phaseSeries builds a deterministic two-phase series: n1 samples
// around level a, then n2 around level b, with a small ±jitter ripple.
func phaseSeries(a float64, n1 int, b float64, n2 int, jitter float64) []float64 {
	out := make([]float64, 0, n1+n2)
	for i := 0; i < n1; i++ {
		out = append(out, a+jitter*float64(i%3-1))
	}
	for i := 0; i < n2; i++ {
		out = append(out, b+jitter*float64(i%3-1))
	}
	return out
}

func alarmsOf(d *DriftDetector, series []float64) []DriftEvent {
	var out []DriftEvent
	for _, x := range series {
		if ev, ok := d.Observe(x); ok {
			out = append(out, ev)
		}
	}
	return out
}

// A clear level shift fires exactly one "up" alarm near the
// transition, and the detector re-baselines instead of re-firing on
// every post-shift window.
func TestDriftDetectsLevelShift(t *testing.T) {
	series := phaseSeries(4, 20, 9, 20, 0.05)
	alarms := alarmsOf(NewDriftDetector(), series)
	if len(alarms) != 1 {
		t.Fatalf("got %d alarms %+v, want exactly 1", len(alarms), alarms)
	}
	a := alarms[0]
	if a.Direction != "up" {
		t.Fatalf("direction = %q, want up", a.Direction)
	}
	if a.Sample < 20 || a.Sample > 23 {
		t.Fatalf("alarm at sample %d, want within a few windows of the shift at 20", a.Sample)
	}
	if a.Value < 8.9 || a.Value > 9.1 {
		t.Fatalf("alarm value = %v, want ~9", a.Value)
	}
}

// A downward collapse fires a "down" alarm — the throughput-drop case.
func TestDriftDetectsCollapse(t *testing.T) {
	series := phaseSeries(100, 15, 30, 15, 0.5)
	alarms := alarmsOf(NewDriftDetector(), series)
	if len(alarms) != 1 || alarms[0].Direction != "down" {
		t.Fatalf("got %+v, want one down alarm", alarms)
	}
}

// A stationary noisy series never alarms.
func TestDriftQuietOnStationarySeries(t *testing.T) {
	series := phaseSeries(5, 200, 5, 0, 0.1)
	if alarms := alarmsOf(NewDriftDetector(), series); len(alarms) != 0 {
		t.Fatalf("stationary series fired %+v", alarms)
	}
}

// Near-zero baselines are floored so tiny absolute wiggles on an
// almost-perfect predictor don't become relative explosions.
func TestDriftFloorSuppressesNearZeroNoise(t *testing.T) {
	series := phaseSeries(0.01, 100, 0.04, 100, 0.005)
	if alarms := alarmsOf(NewDriftDetector(), series); len(alarms) != 0 {
		t.Fatalf("sub-floor series fired %+v", alarms)
	}
}

// Determinism: the same series produces the same alarm sequence no
// matter how the caller batches its Observe calls, and two detectors
// fed identically agree in full state, not just alarm count.
func TestDriftDeterministicAcrossBatchSizes(t *testing.T) {
	series := phaseSeries(4, 30, 12, 30, 0.2)
	series = append(series, phaseSeries(12, 0, 2, 30, 0.2)...)
	ref := NewDriftDetector()
	want := alarmsOf(ref, series)
	if len(want) < 2 {
		t.Fatalf("reference run fired %d alarms, want >= 2 (test series too tame)", len(want))
	}
	for _, batch := range []int{1, 2, 3, 7, 16, len(series)} {
		d := NewDriftDetector()
		var got []DriftEvent
		for i := 0; i < len(series); i += batch {
			end := i + batch
			if end > len(series) {
				end = len(series)
			}
			got = append(got, alarmsOf(d, series[i:end])...)
		}
		if len(got) != len(want) {
			t.Fatalf("batch %d: %d alarms, want %d", batch, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("batch %d: alarm %d = %+v, want %+v", batch, i, got[i], want[i])
			}
		}
		if *d != *ref {
			t.Fatalf("batch %d: final state %+v, want %+v", batch, *d, *ref)
		}
	}
}

// Observe is allocation-free in steady state — it sits on window
// boundaries of live runs.
func TestDriftObserveNoAllocs(t *testing.T) {
	d := NewDriftDetector()
	x := 4.0
	allocs := testing.AllocsPerRun(1000, func() {
		x = math.Mod(x*1.1, 20)
		d.Observe(x)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocated %.1f times per op, want 0", allocs)
	}
}

// After an alarm the detector re-baselines on the new level and stays
// quiet for driftCooldown samples, even when the series jumps again.
func TestDriftCooldownSuppressesRefire(t *testing.T) {
	d := NewDriftDetector()
	series := phaseSeries(4, 10, 12, 1, 0)
	if alarms := alarmsOf(d, series); len(alarms) != 1 || alarms[0].Sample != 10 {
		t.Fatalf("alarms = %+v, want one at sample 10", alarms)
	}
	if d.cooldown != driftCooldown || d.baseline != 12 {
		t.Fatalf("after the alarm: cooldown %d baseline %v, want %d and 12", d.cooldown, d.baseline, driftCooldown)
	}
	for i := 0; i < driftCooldown; i++ {
		if ev, ok := d.Observe(40); ok {
			t.Fatalf("cooldown sample %d fired %+v", i, ev)
		}
	}
	if d.cooldown != 0 {
		t.Fatalf("cooldown = %d after %d samples, want 0", d.cooldown, driftCooldown)
	}
}
