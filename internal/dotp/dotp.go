// Package dotp provides the fused quantized dot-product kernels of the
// neural predictors: gather int8 weights by precomputed table indices,
// apply the ±1 history direction branch-free, and widen into int32
// accumulators. Splitting a perceptron sum this way — an ALU-bound
// index/hash loop feeding a load-bound gather loop — lets the gather
// run with nothing but independent loads in flight, instead of
// interleaving every load with the serial hash recurrence.
//
// There are two kernels:
//
//   - SignedGatherSum, the plain sum of the perceptron engine
//     (internal/predictor/perceptron), which serves BF-Neural and the
//     other engine-built perceptrons;
//   - ScaledGatherSum, the coefficient-scaled sum of oh-snap
//     (internal/predictor/ohsnap), whose per-position coefficients
//     scale each weight before it is signed and added.
package dotp

// SignedGatherSum returns sum_j s_j * w[idx[j]], where s_j is +1 when
// dirs[j] is true and -1 otherwise. len(dirs) must be >= len(idx).
// Weights are quantized int8 widened into int32, so the sum is exact
// for any predictor-scale input (|sum| <= 128*len, far below overflow).
func SignedGatherSum(w []int8, idx []int32, dirs []bool) int32 {
	n := len(idx)
	dirs = dirs[:n]
	// Two accumulators, 4-wide: the loads are independent, so the only
	// carried dependencies are the accumulator adds.
	var a, b int32
	j := 0
	for ; j+2 <= n; j += 2 {
		// m is 0 for taken, -1 for not-taken; (v ^ m) - m negates v
		// exactly when m is -1 (two's complement), with no branch on the
		// unpredictable history direction.
		v0, m0 := int32(w[idx[j]]), int32(b2i(dirs[j]))-1
		v1, m1 := int32(w[idx[j+1]]), int32(b2i(dirs[j+1]))-1
		a += (v0 ^ m0) - m0
		b += (v1 ^ m1) - m1
	}
	if j < n {
		v, m := int32(w[idx[j]]), int32(b2i(dirs[j]))-1
		a += (v ^ m) - m
	}
	return a + b
}

// ScaledGatherSum returns sum_j ScaledTerm(w[idx[j]], coeff[j], shift,
// dirs[j]): each gathered weight times its position's coefficient,
// arithmetically shifted right by shift (< 32), then negated when
// dirs[j] is false. The sign is applied after the shift, so a negative
// product rounds toward minus infinity before it is signed: w = -1,
// c = 24 gives (-24)>>7 = -1 and a not-taken term of +1, not 0.
// len(dirs) and len(coeff) must be >= len(idx).
//
// The two accumulators give the same sum as the sequential loop: with
// int8 weights and oh-snap's coefficients in [24, 480], each term is at
// most 128·480 >> 7 = 480 in magnitude, so 128 terms plus a bias stay
// far below 2^31; and two's-complement addition is associative, so the
// split cannot change the result even where a partial sum would wrap.
func ScaledGatherSum(w []int8, idx []int32, dirs []bool, coeff []int32, shift uint) int32 {
	n := len(idx)
	dirs, coeff = dirs[:n], coeff[:n]
	s := shift & 31
	var a, b int32
	j := 0
	for ; j+2 <= n; j += 2 {
		v0, m0 := int32(w[idx[j]])*coeff[j]>>s, int32(b2i(dirs[j]))-1
		v1, m1 := int32(w[idx[j+1]])*coeff[j+1]>>s, int32(b2i(dirs[j+1]))-1
		a += (v0 ^ m0) - m0
		b += (v1 ^ m1) - m1
	}
	if j < n {
		v, m := int32(w[idx[j]])*coeff[j]>>s, int32(b2i(dirs[j]))-1
		a += (v ^ m) - m
	}
	return a + b
}

// ScaledTerm is one term of ScaledGatherSum, written as the branchy
// reference: (w·c) >> shift, negated when dir is false.
func ScaledTerm(w int8, c int32, shift uint, dir bool) int32 {
	v := int32(w) * c >> shift
	if !dir {
		return -v
	}
	return v
}

func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
