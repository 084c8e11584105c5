package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"sync/atomic"
	"time"

	"bfbp"
	"bfbp/internal/trace"
)

// The wrappers below observe the program from outside: records,
// predictions and bytes pass through them unchanged.

// timedReader records one span per ReadBatch call of the reader it
// wraps and adds the time spent inside the reader to total.
type timedReader struct {
	r       bfbp.TraceReader
	br      trace.BatchReader
	log     *spanLog
	parent  *span
	tid     int
	total   *atomic.Int64
	release func() // frees tid when the trace ends
}

func newTimedReader(r bfbp.TraceReader, log *spanLog, parent *span, tid int, total *atomic.Int64) *timedReader {
	return &timedReader{r: r, br: trace.Batched(r), log: log, parent: parent, tid: tid, total: total}
}

func (t *timedReader) Read() (bfbp.Record, error) {
	start := time.Now()
	rec, err := t.r.Read()
	t.total.Add(int64(time.Since(start)))
	return rec, err
}

func (t *timedReader) ReadBatch(dst []bfbp.Record) (int, error) {
	s := t.log.start(t.parent, t.tid, "read", "read batch")
	n, err := t.br.ReadBatch(dst)
	t.total.Add(int64(s.end("records", n)))
	if err != nil && t.release != nil {
		t.release()
		t.release = nil
	}
	return n, err
}

func (t *timedReader) Close() error { return closeReader(t.r) }

// fileReader replays one BFT1 file and closes it when the trace ends:
// the engine never closes the readers it opens.
type fileReader struct {
	f  *os.File
	fr *trace.FileReader
}

// openFile opens a BFT1 file as a trace reader. An open failure is
// returned by the reader's first read.
func openFile(path string) bfbp.TraceReader {
	f, err := os.Open(path)
	if err != nil {
		return trace.Func(func() (bfbp.Record, error) { return bfbp.Record{}, err })
	}
	return &fileReader{f: f, fr: trace.NewFileReader(f)}
}

func (r *fileReader) Read() (bfbp.Record, error) {
	rec, err := r.fr.Read()
	if err != nil {
		r.Close()
	}
	return rec, err
}

func (r *fileReader) ReadBatch(dst []bfbp.Record) (int, error) {
	n, err := r.fr.ReadBatch(dst)
	if err != nil {
		r.Close()
	}
	return n, err
}

func (r *fileReader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// closeReader closes r if it holds a file. Readers are only read, so
// a close error loses nothing.
func closeReader(r bfbp.TraceReader) error {
	if c, ok := r.(io.Closer); ok {
		return c.Close()
	}
	return nil
}

// sampleEvery is the latency sampling period of sampledPredictor, the
// period of the harness probe.
const sampleEvery = 64

// sampledPredictor times every sampleEvery'th Predict and Update call of
// the predictor it embeds. Embedding the interface hides the fused batch
// path, so the harness drives the per-record Predict/Update path.
type sampledPredictor struct {
	bfbp.Predictor
	nPredict, nUpdate uint64
	predict, update   []time.Duration
}

func (s *sampledPredictor) Predict(pc uint64) bool {
	s.nPredict++
	if s.nPredict%sampleEvery != 0 {
		return s.Predictor.Predict(pc)
	}
	start := time.Now()
	taken := s.Predictor.Predict(pc)
	s.predict = append(s.predict, time.Since(start))
	return taken
}

func (s *sampledPredictor) Update(pc uint64, taken bool, target uint64) {
	s.nUpdate++
	if s.nUpdate%sampleEvery != 0 {
		s.Predictor.Update(pc, taken, target)
		return
	}
	start := time.Now()
	s.Predictor.Update(pc, taken, target)
	s.update = append(s.update, time.Since(start))
}

// countWriter counts the bytes and lines written to it and discards
// them, so a sink's output volume is measured without disk noise.
type countWriter struct {
	bytes, lines atomic.Uint64
}

func (w *countWriter) Write(p []byte) (int, error) {
	w.bytes.Add(uint64(len(p)))
	w.lines.Add(uint64(bytes.Count(p, []byte{'\n'})))
	return len(p), nil
}

// sinks are the telemetry sinks bfsim -journal -trace-out -probe-state
// turns on, writing to counting writers.
type sinks struct {
	metrics *bfbp.EngineMetrics
	journal *bfbp.Journal
	tracer  *bfbp.Tracer
	jw, tw  countWriter
}

func newSinks() *sinks {
	s := &sinks{metrics: bfbp.NewEngineMetrics(bfbp.NewMetricsRegistry())}
	s.journal = bfbp.NewJournal(&s.jw)
	s.tracer = bfbp.NewTracer(&s.tw)
	return s
}

func (s *sinks) close() error { return errors.Join(s.journal.Close(), s.tracer.Close()) }

// sinkCount is a reading of a sinks' output volume.
type sinkCount struct {
	journalBytes, journalEvents, traceBytes, traceEvents uint64
}

func (s *sinks) count() sinkCount {
	return sinkCount{
		journalBytes:  s.jw.bytes.Load(),
		journalEvents: s.jw.lines.Load(),
		traceBytes:    s.tw.bytes.Load(),
		traceEvents:   uint64(s.tracer.Events()),
	}
}

func (c sinkCount) sub(o sinkCount) sinkCount {
	return sinkCount{c.journalBytes - o.journalBytes, c.journalEvents - o.journalEvents,
		c.traceBytes - o.traceBytes, c.traceEvents - o.traceEvents}
}

// batchSize is the read granularity of drain and encode, RunContext's.
const batchSize = 4096

// drain reads r to its end and returns the record count.
func drain(r bfbp.TraceReader) (uint64, error) {
	br := trace.Batched(r)
	buf := make([]bfbp.Record, batchSize)
	var n uint64
	for {
		k, err := br.ReadBatch(buf)
		n += uint64(k)
		if errors.Is(err, io.EOF) {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// encode writes the records of r to w in the BFT1 format.
func encode(w io.Writer, r bfbp.TraceReader) (uint64, error) {
	br := trace.Batched(r)
	tw := trace.NewWriter(w)
	buf := make([]bfbp.Record, batchSize)
	for {
		k, err := br.ReadBatch(buf)
		if errors.Is(err, io.EOF) {
			return tw.Count(), tw.Flush()
		}
		if err != nil {
			return tw.Count(), err
		}
		for _, rec := range buf[:k] {
			if err := tw.Write(rec); err != nil {
				return tw.Count(), err
			}
		}
	}
}
