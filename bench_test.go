package bfbp_test

import (
	"testing"

	"bfbp"
	"bfbp/internal/experiments"
)

// Figure/table regeneration benchmarks: each benchmark reruns the
// experiment behind one figure or table of the paper at a reduced scale
// and reports the headline metric via b.ReportMetric, so
// `go test -bench=.` doubles as a quick experiment runner. Use
// cmd/experiments for full-scale runs.

func benchCfg(traces ...string) experiments.Config {
	return experiments.Config{
		LongBranches:  120_000,
		ShortBranches: 80_000,
		TraceFilter:   traces,
	}
}

// BenchmarkFig2BiasProfile regenerates the biased-branch fractions.
func BenchmarkFig2BiasProfile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig2(benchCfg("SPEC02", "SPEC06", "SPEC18"))
		hi, _ := tab.RowByLabel("SPEC06")
		b.ReportMetric(hi.Vals[0], "biased%")
	}
}

// BenchmarkFig8MPKIComparison regenerates the 64KB comparison on a trace
// subset and reports the BF-Neural mean MPKI.
func BenchmarkFig8MPKIComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig8(benchCfg("SPEC03", "SPEC06", "INT1"))
		avg, _ := tab.RowByLabel("Avg.")
		b.ReportMetric(avg.Vals[tab.Col("BF-Neural")], "bfneural-mpki")
		b.ReportMetric(avg.Vals[tab.Col("OH-SNAP")], "ohsnap-mpki")
	}
}

// BenchmarkFig9Ablation regenerates the optimization-contribution bars.
func BenchmarkFig9Ablation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig9(benchCfg("SPEC03", "SPEC14"))
		avg, _ := tab.RowByLabel("Avg.")
		b.ReportMetric(avg.Vals[0], "perceptron-mpki")
		b.ReportMetric(avg.Vals[3], "bfneural-mpki")
	}
}

// BenchmarkFig10TableSweep regenerates the table-count sweep (4..10).
func BenchmarkFig10TableSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig10(benchCfg("SPEC00", "SPEC06"))
		first := tab.Rows[0]
		b.ReportMetric(first.Vals[0], "isltage4-mpki")
		b.ReportMetric(first.Vals[1], "bftage4-mpki")
	}
}

// BenchmarkFig11RelativeImprovement regenerates the relative-improvement
// chart for a long-history trace.
func BenchmarkFig11RelativeImprovement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Fig11(benchCfg("SPEC00"))
		r := tab.Rows[0]
		b.ReportMetric(r.Vals[0], "tage15-improv%")
		b.ReportMetric(r.Vals[1], "bftage10-improv%")
	}
}

// BenchmarkFig12TableHits regenerates a provider-table histogram and
// reports the hit-weighted center of each predictor.
func BenchmarkFig12TableHits(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := experiments.Fig12(benchCfg(), "SPEC00")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(experiments.WeightedCenter(tab, 0), "tage15-center")
		b.ReportMetric(experiments.WeightedCenter(tab, 1), "bftage10-center")
	}
}

// BenchmarkTable1Storage verifies the Table I storage accounting.
func BenchmarkTable1Storage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bd := experiments.Table1()
		b.ReportMetric(float64(bd.TotalBytes()), "bytes")
	}
}

// Throughput benchmarks: single-predictor simulation speed on a fixed
// trace (predictions per op = trace length), with allocations per op
// (a fresh predictor each op, so mostly its construction).

func benchPredictor(b *testing.B, mk func() bfbp.Predictor) {
	spec, _ := bfbp.TraceByName("SPEC05")
	tr := spec.GenerateN(100_000)
	var insts uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := mk()
		st, err := bfbp.Run(p, tr.Stream(), bfbp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		insts = st.Branches
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "branches/s")
}

func BenchmarkPredictBimodal(b *testing.B) {
	benchPredictor(b, func() bfbp.Predictor { return bfbp.NewBimodal(1 << 14) })
}

func BenchmarkPredictGShare(b *testing.B) {
	benchPredictor(b, func() bfbp.Predictor { return bfbp.NewGShare(1<<16, 16) })
}

func BenchmarkPredictPerceptron(b *testing.B) {
	benchPredictor(b, func() bfbp.Predictor { return bfbp.NewPerceptron(bfbp.Perceptron64KB()) })
}

func BenchmarkPredictOHSNAP(b *testing.B) {
	benchPredictor(b, func() bfbp.Predictor { return bfbp.NewOHSNAP(bfbp.OHSNAP64KB()) })
}

func BenchmarkPredictISLTAGE15(b *testing.B) {
	benchPredictor(b, func() bfbp.Predictor { return bfbp.NewTAGE(bfbp.ISLTAGE(15)) })
}

func BenchmarkPredictBFNeural(b *testing.B) {
	benchPredictor(b, func() bfbp.Predictor { return bfbp.NewBFNeural(bfbp.BFNeural64KB()) })
}

func BenchmarkPredictBFISLTAGE10(b *testing.B) {
	benchPredictor(b, func() bfbp.Predictor { return bfbp.NewBFTAGE(bfbp.BFISLTAGE(10)) })
}

// Ablation benchmarks: design choices called out in DESIGN.md §4, each
// reporting the MPKI with and without the feature.

func ablate(b *testing.B, traceName string, base, variant func() bfbp.Predictor) {
	spec, _ := bfbp.TraceByName(traceName)
	tr := spec.GenerateN(150_000)
	warm := uint64(len(tr) / 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st0, err := bfbp.Run(base(), tr.Stream(), bfbp.Options{Warmup: warm})
		if err != nil {
			b.Fatal(err)
		}
		st1, err := bfbp.Run(variant(), tr.Stream(), bfbp.Options{Warmup: warm})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(st0.MPKI(), "base-mpki")
		b.ReportMetric(st1.MPKI(), "variant-mpki")
	}
}

// BenchmarkAblationPositionalHistory compares full BF-Neural against the
// no-recency-stack mode on the Fig. 4-style MM workload.
func BenchmarkAblationPositionalHistory(b *testing.B) {
	ablate(b, "MM2",
		func() bfbp.Predictor { return bfbp.NewBFNeural(bfbp.BFNeural64KB()) },
		func() bfbp.Predictor { return bfbp.NewBFNeural(bfbp.BFNeuralAblation(bfbp.BFModeBiasFreeGHR)) })
}

// BenchmarkAblationLoopPredictor measures the loop component's
// contribution to BF-TAGE on a loop-heavy FP trace.
func BenchmarkAblationLoopPredictor(b *testing.B) {
	ablate(b, "FP3",
		func() bfbp.Predictor { return bfbp.NewBFTAGE(bfbp.BFISLTAGE(10)) },
		func() bfbp.Predictor {
			cfg := bfbp.BFISLTAGE(10)
			cfg.LoopPredictor = false
			return bfbp.NewBFTAGE(cfg)
		})
}

// BenchmarkAblationStatisticalCorrector measures the SC contribution.
func BenchmarkAblationStatisticalCorrector(b *testing.B) {
	ablate(b, "SPEC00",
		func() bfbp.Predictor { return bfbp.NewBFTAGE(bfbp.BFISLTAGE(10)) },
		func() bfbp.Predictor { return bfbp.NewBFTAGE(bfbp.BFTAGEBare(10)) })
}

// BenchmarkAblationDelayedUpdate measures IUM value under a 16-branch
// update delay (the pipeline model, DESIGN.md §4).
func BenchmarkAblationDelayedUpdate(b *testing.B) {
	spec, _ := bfbp.TraceByName("INT3")
	tr := spec.GenerateN(150_000)
	warm := uint64(len(tr) / 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		with, err := bfbp.Run(bfbp.NewTAGE(bfbp.ISLTAGE(10)), tr.Stream(),
			bfbp.Options{Warmup: warm, UpdateDelay: 16})
		if err != nil {
			b.Fatal(err)
		}
		cfg := bfbp.ISLTAGE(10)
		cfg.IUM = false
		without, err := bfbp.Run(bfbp.NewTAGE(cfg), tr.Stream(),
			bfbp.Options{Warmup: warm, UpdateDelay: 16})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(with.MPKI(), "ium-mpki")
		b.ReportMetric(without.MPKI(), "noium-mpki")
	}
}

// BenchmarkAblationAheadPipelined measures the accuracy cost of the
// §VIII future-work variant (weight rows indexed without the branch PC).
func BenchmarkAblationAheadPipelined(b *testing.B) {
	ablate(b, "SPEC05",
		func() bfbp.Predictor { return bfbp.NewBFNeural(bfbp.BFNeural64KB()) },
		func() bfbp.Predictor { return bfbp.NewBFNeural(bfbp.BFNeuralAhead()) })
}

// BenchmarkAblationSegmentedRS contrasts the paper's segmentation with a
// two-segment variant covering the same 2048-branch reach — the
// monolithic-RS strawman that §V-B1 argues is unimplementable in hardware
// and, as measured here, also loses accuracy from associativity overflow.
func BenchmarkAblationSegmentedRS(b *testing.B) {
	ablate(b, "SPEC00",
		func() bfbp.Predictor { return bfbp.NewBFTAGE(bfbp.BFISLTAGE(10)) },
		func() bfbp.Predictor {
			cfg := bfbp.BFISLTAGE(10)
			cfg.SegBounds = []int{16, 1024, 2048}
			cfg.SegSize = 64
			hists := []int{3, 8, 14, 26, 40, 54, 70, 94, 118, 144}
			for i := range cfg.Tables {
				cfg.Tables[i].HistLen = hists[i]
			}
			return bfbp.NewBFTAGE(cfg)
		})
}

// BenchmarkPredictBFGEHL measures the BF-GEHL extension's throughput.
func BenchmarkPredictBFGEHL(b *testing.B) {
	benchPredictor(b, func() bfbp.Predictor { return bfbp.NewBFGEHL(bfbp.BFGEHL64KB()) })
}

// BenchmarkTraceGeneration measures synthetic trace generation speed.
func BenchmarkTraceGeneration(b *testing.B) {
	spec, _ := bfbp.TraceByName("SPEC00")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := spec.GenerateN(100_000)
		if len(tr) < 100_000 {
			b.Fatal("short trace")
		}
	}
}
