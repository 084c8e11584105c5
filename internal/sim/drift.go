package sim

import "bfbp/internal/obs"

// journalDrift is the bfbp.journal.v1 payload for a change-point alarm:
// a streaming drift detector watching one windowed metric of one run
// decided the series shifted. Window is the index of the window whose
// sample tripped the alarm, and Baseline/Value/Score snapshot the
// detector at the moment it fired.
type journalDrift struct {
	Trace     string  `json:"trace,omitempty"`
	Predictor string  `json:"predictor,omitempty"`
	Metric    string  `json:"metric"`
	Window    int     `json:"window"`
	Value     float64 `json:"value"`
	Baseline  float64 `json:"baseline"`
	Score     float64 `json:"score"`
	Direction string  `json:"direction"`
	Span      uint64  `json:"span,omitempty"`
}

// JournalDrift emits a drift event: the detector keyed by
// (trace, predictor, metric) alarmed on window index window with the
// given event. The telemetry monitor calls this from its window hook.
// Span is always 0 today (window hooks run outside any recorded span)
// but kept for the correlation contract. Nil-safe on j.
func JournalDrift(j *obs.Journal, trace, predictor, metric string, window int, ev obs.DriftEvent) {
	if j == nil {
		return
	}
	j.Emit("drift", journalDrift{
		Trace:     trace,
		Predictor: predictor,
		Metric:    metric,
		Window:    window,
		Value:     ev.Value,
		Baseline:  ev.Baseline,
		Score:     ev.Score,
		Direction: ev.Direction,
	})
}
