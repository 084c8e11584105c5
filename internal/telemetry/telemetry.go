// Package telemetry wires the obs substrate into the command-line
// tools: one call turns the -metrics-addr / -journal / -heartbeat /
// -trace-out / -runtime-trace flags into a live metrics endpoint
// (Prometheus text + expvar JSON + net/http/pprof), a bfbp.journal.v1
// JSONL file, a bfbp.trace.v1 execution-span timeline (loadable in
// Perfetto or chrome://tracing), an optional runtime/trace capture,
// and a periodic stderr heartbeat summarising engine progress.
//
// Everything degrades to zero cost when disabled: Start returns a nil
// *T when no telemetry was requested, and every method on a nil *T is
// a no-op, so commands wire it unconditionally.
package telemetry

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	rtrace "runtime/trace"
	"sync"
	"syscall"
	"time"

	"bfbp/internal/obs"
	"bfbp/internal/sim"
)

// Config selects which telemetry sinks to enable. The zero value
// disables everything.
type Config struct {
	// MetricsAddr, when non-empty, serves /metrics, /debug/vars, and
	// /debug/pprof/* on this listen address (e.g. "localhost:8080").
	MetricsAddr string
	// JournalPath, when non-empty, appends bfbp.journal.v1 JSONL events
	// to this file (created or truncated).
	JournalPath string
	// Heartbeat, when positive, prints an engine-progress line to
	// stderr at this period.
	Heartbeat time.Duration
	// TracePath, when non-empty, writes a bfbp.trace.v1 execution-span
	// timeline (Chrome trace-event JSON, loadable in Perfetto) to this
	// file (created or truncated).
	TracePath string
	// RuntimeTracePath, when non-empty, captures a Go runtime/trace to
	// this file and bridges bfbp spans into it as tasks and regions, so
	// `go tool trace` shows suite/run/batch slices alongside scheduler
	// and GC events.
	RuntimeTracePath string

	// Drift enables the phase/drift monitor: one streaming change-point
	// detector per windowed (trace, predictor) MPKI series, MPKI
	// counter tracks on the bfbp.trace.v1 timeline, drift journal
	// events, and a flight recorder of recent journal lines.
	// DriftConfig tunes the detectors (zero fields take the obs
	// defaults).
	Drift       bool
	DriftConfig obs.DriftConfig
	// FlightPath, when non-empty, writes a bfbp.flight.v1 snapshot of
	// the flight recorder to this file on every drift alarm and on
	// SIGQUIT (the file always holds the latest incident). Implies
	// Drift. FlightDepth bounds the ring (0 means 256 lines).
	FlightPath  string
	FlightDepth int
}

// T is a running telemetry stack. A nil *T is valid and inert.
type T struct {
	// Registry holds every metric; serve or snapshot it as needed.
	Registry *obs.Registry
	// Engine is the engine metric set commands attach to sim.Engine.
	Engine *sim.EngineMetrics
	// Journal is the run journal: the -journal file, teed through the
	// monitor's flight recorder when a monitor runs (nil when neither
	// is enabled).
	Journal *obs.Journal
	// Tracer is the execution-span tracer (nil when -trace-out is
	// unset).
	Tracer *obs.Tracer
	// Addr is the bound metrics listen address ("" when -metrics-addr
	// is unset); it differs from Config.MetricsAddr for ":0" binds.
	Addr string
	// Runtime bridges runtime/metrics into the registry as
	// bfbp_runtime_* (nil unless MetricsAddr or Heartbeat is set).
	Runtime *obs.RuntimeCollector
	// Monitor is the phase/drift watchdog (nil unless Drift or
	// FlightPath is set).
	Monitor *Monitor

	server      *http.Server
	journalFile *os.File
	traceFile   *os.File
	rtFile      *os.File
	stop        chan struct{}
	stopped     chan struct{}
	sigCh       chan os.Signal
	closeOnce   sync.Once
	closeErr    error
}

// Enabled reports whether cfg requests any telemetry.
func (cfg Config) Enabled() bool {
	return cfg.MetricsAddr != "" || cfg.JournalPath != "" || cfg.Heartbeat > 0 ||
		cfg.TracePath != "" || cfg.RuntimeTracePath != "" ||
		cfg.Drift || cfg.FlightPath != ""
}

// runtimePeriod is how often the runtime collector refreshes the
// bfbp_runtime_* gauges.
const runtimePeriod = time.Second

// Start brings up the requested sinks. It returns (nil, nil) when cfg
// is fully disabled. The listener is bound synchronously so address
// errors fail fast; serving happens on a background goroutine.
func Start(cfg Config) (*T, error) {
	if !cfg.Enabled() {
		return nil, nil
	}
	t := &T{Registry: obs.NewRegistry()}
	t.Engine = sim.NewEngineMetrics(t.Registry)

	// The runtime gauges ride along whenever a live surface exists to
	// read them: the HTTP endpoint or the heartbeat.
	if cfg.MetricsAddr != "" || cfg.Heartbeat > 0 {
		t.Runtime = obs.NewRuntimeCollector(t.Registry)
	}

	if cfg.TracePath != "" {
		f, err := os.Create(cfg.TracePath)
		if err != nil {
			t.closeSinks()
			return nil, fmt.Errorf("telemetry: trace: %w", err)
		}
		t.traceFile = f
		t.Tracer = obs.NewTracer(f)
		t.Tracer.Instrument(t.Registry)
	}

	// The monitor is built after the tracer (it feeds counter tracks)
	// and before the journal (whose writer is teed through the flight
	// recorder so every journal line lands in the ring).
	if cfg.Drift || cfg.FlightPath != "" {
		t.Monitor = newMonitor(t, cfg)
		if cfg.FlightPath != "" {
			t.sigCh = make(chan os.Signal, 1)
			signal.Notify(t.sigCh, syscall.SIGQUIT)
			go func() {
				for range t.sigCh {
					t.Monitor.dump("signal", "", nil)
				}
			}()
		}
	}

	// There is at most one journal: the -journal file, the monitor's
	// flight recorder, or both through a tee. A monitor without a
	// journal file still gets a journal over its recorder alone, so
	// alarm dumps carry every engine event.
	var journalSinks []io.Writer
	if cfg.JournalPath != "" {
		f, err := os.Create(cfg.JournalPath)
		if err != nil {
			t.closeSinks()
			return nil, fmt.Errorf("telemetry: journal: %w", err)
		}
		t.journalFile = f
		journalSinks = append(journalSinks, f)
	}
	if t.Monitor != nil {
		journalSinks = append(journalSinks, t.Monitor.recorder)
	}
	if len(journalSinks) > 0 {
		t.Journal = obs.NewJournal(io.MultiWriter(journalSinks...))
		if t.Monitor != nil {
			t.Monitor.journal = t.Journal
		}
	}

	if cfg.RuntimeTracePath != "" {
		f, err := os.Create(cfg.RuntimeTracePath)
		if err != nil {
			t.closeSinks()
			return nil, fmt.Errorf("telemetry: runtime trace: %w", err)
		}
		if err := rtrace.Start(f); err != nil {
			f.Close()
			t.closeSinks()
			return nil, fmt.Errorf("telemetry: runtime trace: %w", err)
		}
		t.rtFile = f
		if t.Tracer != nil {
			t.Tracer.BridgeRuntime = true
		}
	}

	if cfg.MetricsAddr != "" {
		ln, err := net.Listen("tcp", cfg.MetricsAddr)
		if err != nil {
			t.closeSinks()
			return nil, fmt.Errorf("telemetry: metrics listener: %w", err)
		}
		t.server = &http.Server{Handler: obs.NewMux(t.Registry)}
		t.Addr = ln.Addr().String()
		go func() { _ = t.server.Serve(ln) }()
		fmt.Fprintf(os.Stderr, "bfbp: serving metrics on http://%s/metrics (pprof on /debug/pprof/)\n", ln.Addr())
	}

	if cfg.Heartbeat > 0 {
		t.stop = make(chan struct{})
		t.stopped = make(chan struct{})
		go t.heartbeat(cfg.Heartbeat)
	}
	t.Runtime.Start(runtimePeriod)
	return t, nil
}

// Attach points an engine at the telemetry sinks: metrics, journal,
// tracer, and the drift monitor as its event subscriber. It is the one
// place commands wire telemetry into an engine. Nil-safe.
func (t *T) Attach(eng *sim.Engine) {
	if t == nil {
		return
	}
	eng.Metrics = t.Engine
	eng.Journal = t.Journal
	eng.Tracer = t.Tracer
	if t.Monitor != nil {
		eng.OnEvent = t.Monitor.Observe
	}
}

// RunJournal returns the run journal (nil when off).
func (t *T) RunJournal() *obs.Journal {
	if t == nil {
		return nil
	}
	return t.Journal
}

// heartbeat prints one progress line per period:
//
//	bfbp: 12/160 runs (0 failed), 8 busy, 140 queued, 45.2M branches, 3.4M branches/s, 9 spans, 1.2M journal, 38.1M heap, 14 gor, 1.2ms gc p99
//
// The rate is the branch-counter delta since the previous beat. The
// spans-in-flight and journal-bytes fields appear only when those
// sinks are enabled; the heap/goroutine/GC-pause fields appear only
// when the runtime collector runs.
func (t *T) heartbeat(period time.Duration) {
	defer close(t.stopped)
	tick := time.NewTicker(period)
	defer tick.Stop()
	var lastBranches uint64
	last := time.Now()
	for {
		select {
		case <-t.stop:
			return
		case now := <-tick.C:
			fmt.Fprintln(os.Stderr, t.heartbeatLine(&lastBranches, &last, now))
		}
	}
}

// heartbeatLine renders one heartbeat, updating the rate baseline.
// Split from the ticker loop so tests can exercise the format without
// real time passing.
func (t *T) heartbeatLine(lastBranches *uint64, last *time.Time, now time.Time) string {
	s := t.Engine.Snapshot()
	rate := float64(s.Branches-*lastBranches) / now.Sub(*last).Seconds()
	done := s.RunsOK + s.RunsFailed
	total := done + uint64(s.Queued) + uint64(s.Busy)
	line := fmt.Sprintf("bfbp: %d/%d runs (%d failed), %d busy, %d queued, %s branches, %s branches/s",
		done, total, s.RunsFailed, s.Busy, s.Queued, human(float64(s.Branches)), human(rate))
	if t.Tracer != nil {
		line += fmt.Sprintf(", %d spans", t.Tracer.InFlight())
	}
	if t.Journal != nil {
		line += fmt.Sprintf(", %s journal", human(float64(t.Journal.Bytes())))
	}
	if t.Runtime != nil {
		rs := t.Runtime.Snapshot()
		line += fmt.Sprintf(", %s heap, %d gor, %.1fms gc p99",
			human(float64(rs.HeapBytes)), rs.Goroutines, rs.GCPauseP99*1e3)
	}
	*lastBranches, *last = s.Branches, now
	return line
}

// human renders a count with K/M/G suffixes for heartbeat lines.
func human(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.1fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.1fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fK", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}

// closeSinks tears down the file-backed sinks opened so far — used on
// Start error paths before T escapes to the caller.
func (t *T) closeSinks() {
	if t.rtFile != nil {
		rtrace.Stop()
		_ = t.rtFile.Close()
	}
	if t.traceFile != nil {
		_ = t.Tracer.Close()
		_ = t.traceFile.Close()
	}
	if t.journalFile != nil {
		_ = t.Journal.Close()
		_ = t.journalFile.Close()
	}
}

// Close stops the heartbeat, seals the trace and runtime-trace
// captures, flushes and closes the journal, and shuts the metrics
// server down. Nil-safe and idempotent; returns the first error (on
// every call, so a deferred second Close is harmless).
func (t *T) Close() error {
	if t == nil {
		return nil
	}
	t.closeOnce.Do(func() {
		if t.stop != nil {
			close(t.stop)
			<-t.stopped
		}
		if t.sigCh != nil {
			signal.Stop(t.sigCh)
			close(t.sigCh)
		}
		t.Runtime.Stop()
		if t.Tracer != nil {
			if err := t.Tracer.Close(); err != nil {
				t.closeErr = err
			}
		}
		if t.traceFile != nil {
			if err := t.traceFile.Close(); err != nil && t.closeErr == nil {
				t.closeErr = err
			}
		}
		if t.rtFile != nil {
			rtrace.Stop()
			if err := t.rtFile.Close(); err != nil && t.closeErr == nil {
				t.closeErr = err
			}
		}
		if t.Journal != nil {
			if err := t.Journal.Close(); err != nil && t.closeErr == nil {
				t.closeErr = err
			}
		}
		if t.journalFile != nil {
			if err := t.journalFile.Close(); err != nil && t.closeErr == nil {
				t.closeErr = err
			}
		}
		if t.server != nil {
			if err := t.server.Close(); err != nil && t.closeErr == nil {
				t.closeErr = err
			}
		}
	})
	return t.closeErr
}
