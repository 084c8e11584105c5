package bfbp_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"bfbp"
)

// TestBFGHRSnapshotBytesPinned pins the SHA-256 of the three BF-GHR
// cores' snapshots after INT1's first 60,000 branches (the generator
// rounds up to a whole burst: 60,016, as bfsim -n 60000 does). The
// snapshot carries every segment's entries, derived from the recency
// stacks, so a change in how the stacks are kept that alters a single
// saved entry, distance or byte order fails here. The hashes equal those
// of bfsim -p <name> -t INT1 -n 60000 -warmup 0 -checkpoint files.
func TestBFGHRSnapshotBytesPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("trains three cores over 60,000 branches")
	}
	tr := genTrace(t, "INT1", 60_000)
	for _, tc := range []struct{ name, sha string }{
		{"bf-tage-10", "74e6640dd6e8d5278f9b2b45b3ffde4c9b22a51a94ce5b74b1c3cb8bd550a543"},
		{"bf-isl-tage-10", "64d6ffe13b6e0103f9fab3c9b762c3881a567da2a1a4417a1a2c9dc9dbf7ddd2"},
		{"bf-gehl", "f1d1a44134e49f112e528547779e6d7f60da9294b808b87bce93f4f5298a15f9"},
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
