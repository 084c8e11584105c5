// Package tage implements the TAGE conditional branch predictor (Seznec &
// Michaud 2006; Seznec 2011) together with the ISL-TAGE additions the
// paper uses as its baseline (§V-A, §VI-A): a loop-count predictor, a
// statistical corrector, and an immediate update mimicker. The number of
// tagged tables, their history lengths and their sizes are fully
// configurable, which is what the paper's Fig. 10/11/12 sweeps vary.
package tage

import "fmt"

// islSeries15 is the history-length series of the 15-tagged-table
// ISL-TAGE, quoted in the paper's footnote 2: conventional TAGE with n
// tables uses the first n lengths of this series (§VI-C: a 10-table TAGE
// reaches 195 bits, the 7th table ~67-70 bits).
var islSeries15 = []int{3, 8, 12, 17, 33, 35, 67, 97, 138, 195, 330, 517, 1193, 1741, 1930}

// ConventionalHistories returns the history lengths of a conventional
// n-tagged-table TAGE (n in [1, 15]).
func ConventionalHistories(n int) []int {
	if n < 1 || n > len(islSeries15) {
		panic("tage: table count out of range [1,15]")
	}
	return append([]int(nil), islSeries15[:n]...)
}

// TableConfig sizes one tagged table.
type TableConfig struct {
	// HistLen is the global history length indexing this table.
	HistLen int
	// TagBits is the partial tag width.
	TagBits int
	// LogEntries is log2 of the entry count.
	LogEntries int
}

// Config parameterises a TAGE/ISL-TAGE predictor.
type Config struct {
	// Name overrides the reported predictor name.
	Name string
	// BaseLogEntries is log2 of the bimodal base predictor size (the
	// base uses 1 prediction bit per entry plus 1 hysteresis bit shared
	// among 4 entries, as in the paper's Table I budget for T0).
	BaseLogEntries int
	// Tables configures the tagged tables in increasing history order.
	Tables []TableConfig
	// PathBits is the path-history width hashed into indices.
	PathBits int
	// LoopPredictor enables the ISL loop-count predictor.
	LoopPredictor bool
	// StatisticalCorrector enables the ISL statistical corrector.
	StatisticalCorrector bool
	// IUM enables the immediate update mimicker (only observable when
	// the harness delays updates).
	IUM bool
	// Seed drives the allocation-skip randomisation.
	Seed uint64
}

// TagWidths returns per-table tag widths for n tables. For n == 10 it is
// the paper's Table I row; otherwise widths grow from 7 toward 15.
func TagWidths(n int) []int {
	if n == 10 {
		return []int{7, 7, 8, 9, 10, 11, 11, 13, 14, 15}
	}
	out := make([]int, n)
	for i := range out {
		w := 7 + (9*i)/maxInt(n-1, 1)
		if w > 15 {
			w = 15
		}
		out[i] = w
	}
	return out
}

// SizeTables distributes a storage budget (bits for the tagged tables)
// over n tables using the paper's Table I shape: small first tables,
// large middle tables, small long-history tables (Kentries 2,2,2,4,4,4,
// 2,2,1,1 for n=10).
func SizeTables(hists []int, targetBits int) []TableConfig {
	n := len(hists)
	tags := TagWidths(n)
	weight := make([]float64, n)
	for i := range weight {
		switch {
		case i < n/3:
			weight[i] = 2
		case i < (2*n)/3:
			weight[i] = 4
		case i < (2*n)/3+(n+4)/5:
			weight[i] = 2
		default:
			weight[i] = 1
		}
	}
	// Entry cost: 3-bit counter + 1 useful bit + tag.
	cost := func(i, logE int) int { return (4 + tags[i]) << uint(logE) }
	// Find the scale (log2 of entries for a weight-1 table) that fits.
	out := make([]TableConfig, n)
	bestFit := 0
	for scale := 6; scale <= 16; scale++ {
		total := 0
		for i := range out {
			logE := scale + log2i(weight[i])
			total += cost(i, logE)
		}
		if total <= targetBits {
			bestFit = scale
		} else {
			break
		}
	}
	if bestFit == 0 {
		bestFit = 6
	}
	logE := make([]int, n)
	total := 0
	for i := range out {
		logE[i] = bestFit + log2i(weight[i])
		total += cost(i, logE[i])
	}
	// Power-of-two sizing strands up to half the budget; hand the
	// remainder out by doubling tables (middle-weight first, mirroring
	// the paper's emphasis) while they still fit.
	for again := true; again; {
		again = false
		for _, i := range byWeightOrder(weight) {
			extra := cost(i, logE[i]) // doubling costs one more of the same
			if total+extra <= targetBits && logE[i] < 22 {
				logE[i]++
				total += extra
				again = true
			}
		}
	}
	for i := range out {
		out[i] = TableConfig{
			HistLen:    hists[i],
			TagBits:    tags[i],
			LogEntries: logE[i],
		}
	}
	return out
}

// byWeightOrder returns table indices sorted by descending weight, stable
// by index.
func byWeightOrder(weight []float64) []int {
	idx := make([]int, len(weight))
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && weight[idx[j]] > weight[idx[j-1]]; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
	return idx
}

func log2i(w float64) int {
	switch {
	case w >= 4:
		return 2
	case w >= 2:
		return 1
	default:
		return 0
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Conventional returns an ISL-TAGE configuration with n tagged tables
// (n in [4, 15]) sized for the paper's ~51KB tagged-storage budget, with
// loop predictor, statistical corrector, and IUM enabled.
func Conventional(n int) Config {
	return conventional(n, true, true)
}

// ConventionalBare returns the same TAGE organisation without the SC and
// IUM components — the "TAGE" baseline of the paper's Fig. 8, which keeps
// the loop predictor but drops SC/IUM.
func ConventionalBare(n int) Config {
	return conventional(n, false, false)
}

func conventional(n int, sc, ium bool) Config {
	hists := ConventionalHistories(n)
	const targetTaggedBits = 48 * 1024 * 8
	cfg := Config{
		Name:                 fmt.Sprintf("isl-tage-%d", n),
		BaseLogEntries:       14,
		Tables:               SizeTables(hists, targetTaggedBits),
		PathBits:             16,
		LoopPredictor:        true,
		StatisticalCorrector: sc,
		IUM:                  ium,
		Seed:                 0x7A6E,
	}
	if !sc && !ium {
		cfg.Name = fmt.Sprintf("tage-%d", n)
	}
	return cfg
}
