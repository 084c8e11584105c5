// Package telemetry wires the obs substrate into the command-line
// tools: one call turns the -metrics-addr / -journal / -heartbeat /
// -trace-out flags into a live metrics endpoint (Prometheus text +
// net/http/pprof), a bfbp.journal.v1 JSONL file, a bfbp.trace.v1
// execution-span timeline (loadable in Perfetto or chrome://tracing),
// and a periodic stderr heartbeat summarising engine progress.
//
// Everything degrades to zero cost when disabled: Start returns a nil
// *T when no telemetry was requested, and every method on a nil *T is
// a no-op, so commands wire it unconditionally.
package telemetry

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"sync"
	"time"

	"bfbp/internal/obs"
	"bfbp/internal/sim"
)

// Config selects which telemetry sinks to enable. The zero value
// disables everything.
type Config struct {
	// MetricsAddr, when non-empty, serves /metrics and /debug/pprof/*
	// on this listen address (e.g. "localhost:8080").
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
}

// Flags registers -metrics-addr, -journal, -heartbeat and -trace-out on
// fs (typically flag.CommandLine) and returns the Config they set; read
// it after fs.Parse.
func Flags(fs *flag.FlagSet) *Config {
	cfg := new(Config)
	fs.StringVar(&cfg.MetricsAddr, "metrics-addr", "", "serve /metrics and /debug/pprof on this address")
	fs.StringVar(&cfg.JournalPath, "journal", "", "write bfbp.journal.v1 JSONL events to this file")
	fs.DurationVar(&cfg.Heartbeat, "heartbeat", 0, "print an engine-progress line to stderr at this period (0 = off)")
	fs.StringVar(&cfg.TracePath, "trace-out", "", "write a bfbp.trace.v1 span timeline (Perfetto/chrome://tracing JSON) to this file")
	return cfg
}

// T is a running telemetry stack. A nil *T is valid and inert.
type T struct {
	// Registry holds every metric; serve or snapshot it as needed.
	Registry *obs.Registry
	// Engine is the engine metric set commands attach to sim.Engine.
	Engine *sim.EngineMetrics
	// Journal is the run journal over the -journal file (nil when
	// -journal is unset).
	Journal *obs.Journal
	// Tracer is the execution-span tracer (nil when -trace-out is
	// unset).
	Tracer *obs.Tracer
	// Addr is the bound metrics listen address ("" when -metrics-addr
	// is unset); it differs from Config.MetricsAddr for ":0" binds.
	Addr string

	server      *http.Server
	journalFile *os.File
	traceFile   *os.File
	stop        chan struct{}
	stopped     chan struct{}
	closeOnce   sync.Once
	closeErr    error
}

// Enabled reports whether cfg requests any telemetry.
func (cfg Config) Enabled() bool {
	return cfg.MetricsAddr != "" || cfg.JournalPath != "" || cfg.Heartbeat > 0 ||
		cfg.TracePath != ""
}

// Start brings up the requested sinks. It returns (nil, nil) when cfg
// is fully disabled. The listener is bound synchronously so address
// errors fail fast; serving happens on a background goroutine.
func Start(cfg Config) (*T, error) {
	if !cfg.Enabled() {
		return nil, nil
	}
	t := &T{Registry: obs.NewRegistry()}
	t.Engine = sim.NewEngineMetrics(t.Registry)

	if cfg.TracePath != "" {
		f, err := os.Create(cfg.TracePath)
		if err != nil {
			t.closeSinks()
			return nil, fmt.Errorf("telemetry: trace: %w", err)
		}
		t.traceFile = f
		t.Tracer = obs.NewTracer(f)
	}

	if cfg.JournalPath != "" {
		f, err := os.Create(cfg.JournalPath)
		if err != nil {
			t.closeSinks()
			return nil, fmt.Errorf("telemetry: journal: %w", err)
		}
		t.journalFile = f
		t.Journal = obs.NewJournal(f)
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
	return t, nil
}

// Attach points an engine at the telemetry sinks: metrics, journal and
// tracer. It is the one place commands wire telemetry into an engine.
// Nil-safe.
func (t *T) Attach(eng *sim.Engine) {
	if t == nil {
		return
	}
	eng.Metrics = t.Engine
	eng.Journal = t.Journal
	eng.Tracer = t.Tracer
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
//	bfbp: 12/160 runs (0 failed), 8 busy, 140 queued, 45.2M branches, 3.4M branches/s, 9 spans, 1.2M journal
//
// The rate is the branch-counter delta since the previous beat. The
// spans-in-flight and journal-bytes fields appear only when those
// sinks are enabled.
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
	if t.traceFile != nil {
		_ = t.Tracer.Close()
		_ = t.traceFile.Close()
	}
	if t.journalFile != nil {
		_ = t.Journal.Close()
		_ = t.journalFile.Close()
	}
}

// Close stops the heartbeat, seals the trace, flushes and closes the
// journal, and shuts the metrics server down. Nil-safe and idempotent;
// returns the first error (on every call, so a deferred second Close
// is harmless).
func (t *T) Close() error {
	if t == nil {
		return nil
	}
	t.closeOnce.Do(func() {
		if t.stop != nil {
			close(t.stop)
			<-t.stopped
		}
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
