package obs

// Streaming change-point detection over windowed metric series. The
// interesting MPKI lives in phase transitions (Lin & Tarsa, "Branch
// Prediction Is Not a Solved Problem"); this detector watches a
// per-(trace, predictor) stream of windowed samples — MPKI, throughput —
// and raises a typed alarm when the series shifts away from its
// baseline, so long endurance runs surface drift the moment it happens
// instead of after the post-mortem plot.
//
// The algorithm is an EWMA baseline with a two-sided Page-Hinkley
// cumulative test on top: each sample's deviation from the baseline
// (beyond a driftDelta slack band) accumulates into an up-score and a
// down-score, and when either score crosses driftLambda the detector fires,
// re-baselines, and backs off for a cooldown. Everything is plain
// float arithmetic over the sample sequence — same series, same
// alarms, regardless of how the caller batches its Observe calls —
// and Observe never allocates, so detectors can sit on window
// boundaries of a hot run.

// The detector's parameters, fixed: every caller runs the same
// detector, so alarms read the same in every report.
const (
	// driftAlpha is the EWMA baseline weight: baseline +=
	// driftAlpha*(x-baseline) per sample. Smaller tracks slower.
	driftAlpha = 0.1
	// driftDelta is the slack band around the baseline, as a fraction
	// of the baseline magnitude (a relative Page-Hinkley): deviations
	// within ±driftDelta×|baseline| do not accumulate.
	driftDelta = 0.05
	// driftLambda is the alarm threshold on the accumulated relative
	// deviation: roughly two windows 55% off baseline, or one window
	// 105% off, fire.
	driftLambda = 1.0
	// driftWarmup is the number of leading samples used only to seat
	// the baseline; no alarms fire during it.
	driftWarmup = 4
	// driftCooldown is the number of samples after an alarm during
	// which the detector re-baselines without alarming again.
	driftCooldown = 2
	// driftFloor is the minimum baseline magnitude used when
	// normalising deviations, so near-zero baselines (an 0.02-MPKI run)
	// don't turn noise into alarms.
	driftFloor = 0.25
)

// DriftEvent is one fired alarm: the series moved Direction
// ("up"/"down") away from Baseline at sample Sample (0-based), with
// the accumulated relative deviation Score that crossed the threshold.
type DriftEvent struct {
	Sample    int     `json:"sample"`
	Value     float64 `json:"value"`
	Baseline  float64 `json:"baseline"`
	Score     float64 `json:"score"`
	Direction string  `json:"direction"`
}

// DriftDetector is the streaming change-point detector. Not safe for
// concurrent use; give each observed series its own detector.
type DriftDetector struct {
	n        int
	baseline float64
	up       float64
	down     float64
	cooldown int
}

// NewDriftDetector builds a detector with no samples seen.
func NewDriftDetector() *DriftDetector {
	return &DriftDetector{}
}

// Observe feeds one sample and reports whether it fired an alarm.
// Deterministic and allocation-free.
func (d *DriftDetector) Observe(x float64) (DriftEvent, bool) {
	d.n++
	if d.n == 1 {
		d.baseline = x
		return DriftEvent{}, false
	}
	scale := d.baseline
	if scale < 0 {
		scale = -scale
	}
	if scale < driftFloor {
		scale = driftFloor
	}
	dev := (x - d.baseline) / scale
	d.baseline += driftAlpha * (x - d.baseline)
	if d.n <= driftWarmup {
		return DriftEvent{}, false
	}
	if d.cooldown > 0 {
		d.cooldown--
		return DriftEvent{}, false
	}
	// Two-sided Page-Hinkley: deviations beyond the slack band
	// accumulate per direction; an in-band sample bleeds both scores
	// toward zero so stale excursions don't linger forever.
	if dev > driftDelta {
		d.up += dev - driftDelta
	} else {
		d.up -= driftDelta - dev
		if d.up < 0 {
			d.up = 0
		}
	}
	if dev < -driftDelta {
		d.down += -dev - driftDelta
	} else {
		d.down -= driftDelta + dev
		if d.down < 0 {
			d.down = 0
		}
	}
	var dir string
	var score float64
	switch {
	case d.up > driftLambda && d.up >= d.down:
		dir, score = "up", d.up
	case d.down > driftLambda:
		dir, score = "down", d.down
	default:
		return DriftEvent{}, false
	}
	ev := DriftEvent{
		Sample:    d.n - 1,
		Value:     x,
		Baseline:  d.baseline,
		Score:     score,
		Direction: dir,
	}
	// Re-baseline on the new level and back off: the alarm marks the
	// transition, and the detector should treat the post-shift level as
	// the new normal rather than re-firing every window.
	d.baseline = x
	d.up, d.down = 0, 0
	d.cooldown = driftCooldown
	return ev, true
}
