package bfbp_test

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"bfbp"
)

// TestTableSnapshotBytesPinned pins the SHA-256 of the six table
// predictors' snapshots after SPEC07's first 60,000 branches (the
// generator rounds up to a whole burst: 60,004, as bfsim -n 60000
// does). Every counter section keeps one little-endian i32 per counter,
// whatever width the bank holds in memory, so a change in how the
// counter banks are kept that alters one saved value, its width or its
// byte order fails here. The hashes equal those of bfsim -p <name>
// -t SPEC07 -n 60000 -warmup 0 -checkpoint files.
func TestTableSnapshotBytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("trains six predictors over 60,000 branches")
	}
	tr := genTrace(t, "SPEC07", 60_000)
	for _, tc := range []struct{ name, sha string }{
		{"bimodal", "d73050bcdd8f9ab3518c952cb57420809e5e3fe197e34cc652b89fffb7a81826"},
		{"gshare", "a2b44d3ff7dc68d2c6dabc3b6629684cd84aab61f786c01c7ac64901642a8325"},
		{"local", "a1693aae84da7688f2bbefd69a72059be791b096243846cb1fe6c16f99daa5a6"},
		{"tournament", "401ad030f0cd2ddbfc7669a59b8b4e1987092cd74a1b7a95df2b3757e1101198"},
		{"yags", "b856a82bf58a6862bb180649692847c8a45146f98040b3cc8547e79b2a62d539"},
		{"filter", "7e03dd83f1a36d9b6b15951868ae900b3369c2d4583e70d1563dc94460a60fe9"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			info, err := bfbp.PredictorByName(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			p := info.New()
			if _, err := bfbp.Run(p, tr.Stream(), bfbp.Options{}); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(saveState(t, p))
			if got := hex.EncodeToString(sum[:]); got != tc.sha {
				t.Fatalf("snapshot sha256 %s, want %s", got, tc.sha)
			}
		})
	}
}

// TestTableHeapNearStorage bounds the heap each table predictor's
// constructor allocates by 5× its modelled storage budget. The counter
// banks keep one byte per signed counter and one half-word per run
// count, so the heap stays a small multiple of the bits the paper's
// equal-budget comparisons charge; a table that copied its bounds into
// every entry would read 20× or more.
func TestTableHeapNearStorage(t *testing.T) {
	for _, name := range []string{"bimodal", "gshare", "local", "tournament", "yags", "filter"} {
		info, err := bfbp.PredictorByName(name)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p := info.New()
		runtime.ReadMemStats(&after)
		heap := after.TotalAlloc - before.TotalAlloc
		budget := uint64(bfbp.Capabilities(p).Storage.Storage().TotalBits() / 8)
		t.Logf("%s: %d heap bytes for %d storage bytes (%.1f×)", name, heap, budget, float64(heap)/float64(budget))
		if heap > 5*budget {
			t.Errorf("%s: New allocates %d bytes, more than 5× its %d-byte storage budget", name, heap, budget)
		}
	}
}
