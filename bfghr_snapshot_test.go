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
		{"bf-tage-10", "1953d91ee1007148433961e27c9a6e8fb64f5b402c91c3da74e72fac7e532a37"},
		{"bf-isl-tage-10", "66175f13097c002ad22dbc9f4eb28476a757b301afd04dfbf0286fe36b1d334a"},
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
