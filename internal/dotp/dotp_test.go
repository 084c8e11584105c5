package dotp

import (
	"math/rand"
	"testing"
)

// refSum is the obvious branchy formulation.
func refSum(w []int8, idx []int32, dirs []bool) int32 {
	var acc int32
	for j := range idx {
		v := int32(w[idx[j]])
		if dirs[j] {
			acc += v
		} else {
			acc -= v
		}
	}
	return acc
}

func TestSignedGatherSum(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	w := make([]int8, 1<<16)
	for i := range w {
		w[i] = int8(r.Intn(64) - 32)
	}
	// Every remainder lane of the unrolled loop, plus saturating
	// extremes and perceptron-scale lengths.
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 48, 72, 100} {
		idx := make([]int32, n)
		dirs := make([]bool, n)
		for trial := 0; trial < 50; trial++ {
			for j := range idx {
				idx[j] = int32(r.Intn(len(w)))
				dirs[j] = r.Intn(2) == 0
			}
			got := SignedGatherSum(w, idx, dirs)
			want := refSum(w, idx, dirs)
			if got != want {
				t.Fatalf("n=%d trial=%d: SignedGatherSum=%d, ref=%d", n, trial, got, want)
			}
		}
	}
	// Extremes: all-min weights, uniform direction.
	for i := range w {
		w[i] = -128
	}
	idx := make([]int32, 72)
	dirs := make([]bool, 72)
	if got := SignedGatherSum(w, idx, dirs); got != 128*72 {
		t.Fatalf("all-min not-taken: got %d, want %d", got, 128*72)
	}
}

// refScaled is the branchy sequential loop ScaledGatherSum replaces:
// one ScaledTerm per position, added in order.
func refScaled(w []int8, idx []int32, dirs []bool, coeff []int32, shift uint) int32 {
	var acc int32
	for j := range idx {
		acc += ScaledTerm(w[idx[j]], coeff[j], shift, dirs[j])
	}
	return acc
}

func TestScaledGatherSum(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	w := make([]int8, 1<<16)
	for i := range w {
		w[i] = int8(r.Intn(256) - 128)
	}
	// Every remainder lane of the unrolled loop and oh-snap's 128
	// positions; coefficients span the adaptation clamps [24, 480].
	for _, n := range []int{0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 63, 64, 127, 128} {
		idx := make([]int32, n)
		dirs := make([]bool, n)
		coeff := make([]int32, n)
		for trial := 0; trial < 50; trial++ {
			for j := range idx {
				idx[j] = int32(r.Intn(len(w)))
				dirs[j] = r.Intn(2) == 0
				coeff[j] = int32(24 + r.Intn(480-24+1))
			}
			got := ScaledGatherSum(w, idx, dirs, coeff, 7)
			want := refScaled(w, idx, dirs, coeff, 7)
			if got != want {
				t.Fatalf("n=%d trial=%d: ScaledGatherSum=%d, ref=%d", n, trial, got, want)
			}
		}
	}
	// The extremes: weights -128 and 127 under coefficients 24 and 480,
	// both directions, at an odd and an even length.
	ext := []int8{-128, 127, -1, 1, 0}
	for _, wv := range ext {
		for _, c := range []int32{24, 480} {
			for _, dir := range []bool{false, true} {
				for _, n := range []int{127, 128} {
					w1 := []int8{wv}
					idx := make([]int32, n)
					dirs := make([]bool, n)
					coeff := make([]int32, n)
					for j := range coeff {
						dirs[j], coeff[j] = dir, c
					}
					got := ScaledGatherSum(w1, idx, dirs, coeff, 7)
					if want := refScaled(w1, idx, dirs, coeff, 7); got != want {
						t.Fatalf("w=%d c=%d dir=%v n=%d: ScaledGatherSum=%d, ref=%d", wv, c, dir, n, got, want)
					}
				}
			}
		}
	}
	if got := ScaledGatherSum([]int8{-128}, make([]int32, 128), make([]bool, 128), fill(128, 480), 7); got != 480*128 {
		t.Fatalf("all-min not-taken at c=480: got %d, want %d", got, 480*128)
	}
}

// TestScaledTermSignAfterShift pins the term's rounding: the product is
// shifted before it is signed, so a small negative product rounds to -1
// and its not-taken term is +1, where signing first would give 0.
func TestScaledTermSignAfterShift(t *testing.T) {
	for _, tc := range []struct {
		w    int8
		c    int32
		dir  bool
		want int32
	}{
		{-1, 24, false, 1},
		{-1, 24, true, -1},
		{1, 24, true, 0},
		{1, 24, false, 0},
		{-128, 480, false, 480},
		{127, 480, true, 127 * 480 >> 7},
		{-5, 100, false, 4}, // -500>>7 = -4
	} {
		if got := ScaledTerm(tc.w, tc.c, 7, tc.dir); got != tc.want {
			t.Errorf("ScaledTerm(%d, %d, 7, %v) = %d, want %d", tc.w, tc.c, tc.dir, got, tc.want)
		}
		got := ScaledGatherSum([]int8{tc.w}, []int32{0}, []bool{tc.dir}, []int32{tc.c}, 7)
		if got != tc.want {
			t.Errorf("ScaledGatherSum of (%d, %d, %v) = %d, want %d", tc.w, tc.c, tc.dir, got, tc.want)
		}
	}
}

func fill(n int, v int32) []int32 {
	s := make([]int32, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// The two perceptron-sum shapes in BF-Neural: Wm (ht=16 over a 64KB
// table) and Wrs (48 entries over a 64KB table).
func benchGather(b *testing.B, tableSize, n int) {
	r := rand.New(rand.NewSource(11))
	w := make([]int8, tableSize)
	for i := range w {
		w[i] = int8(r.Intn(64) - 32)
	}
	idx := make([]int32, n)
	dirs := make([]bool, n)
	for j := range idx {
		idx[j] = int32(r.Intn(tableSize))
		dirs[j] = r.Intn(2) == 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += SignedGatherSum(w, idx, dirs)
	}
	_ = sink
}

func BenchmarkSignedGatherSumWm16(b *testing.B)  { benchGather(b, 1024*16, 16) }
func BenchmarkSignedGatherSumWrs48(b *testing.B) { benchGather(b, 1<<16, 48) }

func BenchmarkRefSumWrs48(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	w := make([]int8, 1<<16)
	for i := range w {
		w[i] = int8(r.Intn(64) - 32)
	}
	idx := make([]int32, 48)
	dirs := make([]bool, 48)
	for j := range idx {
		idx[j] = int32(r.Intn(len(w)))
		dirs[j] = r.Intn(2) == 0
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += refSum(w, idx, dirs)
	}
	_ = sink
}

// oh-snap's shape: 128 positions over its ragged 56KB of weights.
func BenchmarkScaledGatherSum128(b *testing.B) {
	r := rand.New(rand.NewSource(11))
	w := make([]int8, 56*1024)
	for i := range w {
		w[i] = int8(r.Intn(64) - 32)
	}
	idx := make([]int32, 128)
	dirs := make([]bool, 128)
	coeff := make([]int32, 128)
	for j := range idx {
		idx[j] = int32(r.Intn(len(w)))
		dirs[j] = r.Intn(2) == 0
		coeff[j] = int32(24 + r.Intn(480-24+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += ScaledGatherSum(w, idx, dirs, coeff, 7)
	}
	_ = sink
}
