package obs

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// The Prometheus renderer iterates families in name order and series
// in label order, so an export is a deterministic snapshot (modulo the
// metric values themselves).

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips, +Inf spelled "+Inf". A whole number
// a float64 holds exactly prints as an integer (8, not 8e+00 or
// 1e+06), so gauges that count things read as counts.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, +1):
		return "+Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1<<53:
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// labelPairs renders {k="v",...} for a series, with extra appended as a
// pre-rendered pair (used for summary quantile labels). Empty when the
// series has no labels and extra is empty.
func labelPairs(names, values []string, extra string) string {
	var parts []string
	for i, n := range names {
		parts = append(parts, fmt.Sprintf(`%s="%s"`, n, escapeLabel(values[i])))
	}
	if extra != "" {
		parts = append(parts, extra)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4): HELP/TYPE headers, counter
// and gauge samples, and summaries with quantile, _sum and _count
// series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	for _, f := range r.sortedFamilies() {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind); err != nil {
			return err
		}
		for _, s := range f.sortedSeries() {
			var err error
			switch f.kind {
			case counterKind:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, labelPairs(f.labelNames, s.labels, ""), s.counter.Value())
			case gaugeKind:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, labelPairs(f.labelNames, s.labels, ""), formatFloat(s.gauge.Value()))
			case summaryKind:
				err = writePrometheusSummary(w, f, s)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writePrometheusSummary renders a summary in the exposition shape: one
// {quantile="..."} series per exported quantile point plus _sum and
// _count, all read under one lock, so a scrape is internally
// consistent.
func writePrometheusSummary(w io.Writer, f *family, s *series) error {
	count, sum, qs := s.summary.quantiles(exportQuantiles)
	for i, v := range qs {
		q := fmt.Sprintf(`quantile="%s"`, exportQuantileLabels[i])
		if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, labelPairs(f.labelNames, s.labels, q), formatFloat(v)); err != nil {
			return err
		}
	}
	lp := labelPairs(f.labelNames, s.labels, "")
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", f.name, lp, formatFloat(sum)); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", f.name, lp, count)
	return err
}
