package telemetry

import (
	"fmt"
	"os"
	"sort"
	"sync"

	"bfbp/internal/obs"
	"bfbp/internal/sim"
)

// Monitor is the phase/drift watchdog of a telemetry stack: it keeps
// one streaming change-point detector per windowed (trace, predictor)
// MPKI series, feeds MPKI counter tracks into the bfbp.trace.v1
// timeline, keeps the run journal's recent lines in a flight-recorder
// ring, and cuts a bfbp.flight.v1 dump whenever a detector alarms (and
// on SIGQUIT).
//
// A nil *Monitor is inert, so the engine hook wires it
// unconditionally. ObserveWindow is called concurrently from every
// engine worker; detector state is guarded by one mutex — the work per
// window close is a handful of float operations, so contention is
// negligible at window sizes worth using.
type Monitor struct {
	cfg        obs.DriftConfig
	journal    *obs.Journal // run journal, teed through recorder
	tracer     *obs.Tracer  // trace timeline (nil when -trace-out is off)
	recorder   *obs.FlightRecorder
	flightPath string

	mu        sync.Mutex
	detectors map[string]*obs.DriftDetector

	alarms   *obs.CounterFamily
	dumps    *obs.Counter
	baseline *obs.FloatGaugeFamily
	score    *obs.FloatGaugeFamily
}

// newMonitor builds the drift layer against t's sinks. The recorder is
// created here so Start can tee the run journal through it.
func newMonitor(t *T, cfg Config) *Monitor {
	m := &Monitor{
		cfg:        cfg.DriftConfig,
		tracer:     t.Tracer,
		recorder:   obs.NewFlightRecorder(cfg.FlightDepth),
		flightPath: cfg.FlightPath,
		detectors:  make(map[string]*obs.DriftDetector),
		alarms: t.Registry.CounterFamily("bfbp_drift_alarms_total",
			"Change-point alarms fired, by watched series.", "series"),
		dumps: t.Registry.Counter("bfbp_flight_dumps_total",
			"Flight-recorder dumps written."),
		baseline: t.Registry.FloatGaugeFamily("bfbp_drift_baseline",
			"Drift-detector EWMA baseline, by watched series.", "series"),
		score: t.Registry.FloatGaugeFamily("bfbp_drift_score",
			"Drift-detector decision score (max of up/down), by watched series.", "series"),
	}
	return m
}

// ObserveWindow consumes one window-close event from the engine hook:
// it extends the MPKI counter track and runs the series' drift
// detector, handling the full alarm path (drift journal event, trace
// instant, alarm counter, flight dump) when it fires. The window's own journal line is
// already in the flight ring: the engine journals each window before
// calling the hook. Nil-safe.
func (m *Monitor) ObserveWindow(ev sim.WindowEvent) {
	if m == nil {
		return
	}
	key := ev.Trace + "/" + ev.Predictor
	mpki := ev.Stat.MPKI()
	m.tracer.Counter("mpki", map[string]float64{key: mpki})
	// The trailing partial window is usually a fraction of the window
	// size; its MPKI is too noisy to feed the detector.
	if ev.Final {
		return
	}
	series := key + " mpki"
	m.mu.Lock()
	d := m.detectors[series]
	if d == nil {
		d = obs.NewDriftDetector(m.cfg)
		m.detectors[series] = d
	}
	alarm, fired := d.Observe(mpki)
	st := d.State()
	m.mu.Unlock()
	m.baseline.With(series).Set(st.Baseline)
	m.score.With(series).Set(max(st.ScoreUp, st.ScoreDown))
	if !fired {
		return
	}
	m.alarms.With(series).Inc()
	sim.JournalDrift(m.journal, ev.Trace, ev.Predictor, "mpki", ev.Index, alarm)
	m.tracer.Instant("drift", fmt.Sprintf("drift %s %s", series, alarm.Direction), map[string]any{
		"series":   series,
		"value":    alarm.Value,
		"baseline": alarm.Baseline,
		"score":    alarm.Score,
	})
	m.dump("alarm", series, &alarm)
}

// detectorStates snapshots every detector, sorted by series key so
// dumps are deterministic.
func (m *Monitor) detectorStates() []obs.FlightDetector {
	m.mu.Lock()
	defer m.mu.Unlock()
	keys := make([]string, 0, len(m.detectors))
	for k := range m.detectors {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]obs.FlightDetector, 0, len(keys))
	for _, k := range keys {
		out = append(out, obs.FlightDetector{Key: k, State: m.detectors[k].State()})
	}
	return out
}

// dump writes a bfbp.flight.v1 snapshot to the configured path
// (overwriting the previous one — the file always holds the most
// recent incident). No-op without a -flight-dump path. Nil-safe.
func (m *Monitor) dump(reason, alarmKey string, alarm *obs.DriftEvent) {
	if m == nil || m.flightPath == "" {
		return
	}
	snap := m.recorder.Snapshot(reason, alarmKey, alarm, m.detectorStates())
	f, err := os.Create(m.flightPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bfbp: flight dump: %v\n", err)
		return
	}
	werr := snap.Render(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		fmt.Fprintf(os.Stderr, "bfbp: flight dump: %v\n", werr)
		return
	}
	m.dumps.Inc()
}

// Alarms returns the total alarms fired across all series, read back
// from the metric family. Nil-safe.
func (m *Monitor) Alarms() uint64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	var n uint64
	for _, d := range m.detectors {
		n += d.Alarms()
	}
	return n
}
