// Package rng provides small deterministic pseudo-random number generators.
//
// The synthetic workload generator and the predictors' probabilistic
// counters need randomness that is bit-for-bit stable across Go releases
// and platforms, which math/rand does not guarantee for its global source.
// SplitMix64 is tiny, fast, passes BigCrush, and is trivially seedable.
package rng

import "math/bits"

// SplitMix64 is a 64-bit state pseudo-random generator with period 2^64.
// The zero value is a valid generator (seed 0).
type SplitMix64 struct {
	state uint64
}

// New returns a SplitMix64 seeded with seed.
func New(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Uint64 returns the next 64 uniformly distributed bits.
func (r *SplitMix64) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (r *SplitMix64) Uint32() uint32 {
	return uint32(r.Uint64() >> 32)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *SplitMix64) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's multiply-shift rejection method on 64 bits: bias is
	// negligible for the n values used here, so no rejection loop.
	hi, _ := bits.Mul64(r.Uint64(), uint64(n))
	return int(hi)
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *SplitMix64) Float64() float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}

// Bool returns true with probability p.
func (r *SplitMix64) Bool(p float64) bool {
	return r.Float64() < p
}

// Fork returns a new generator whose stream is decorrelated from r's but
// fully determined by r's current state and the supplied label. Forking lets
// independent workload kernels draw from independent streams while keeping
// the whole trace reproducible from one seed.
func (r *SplitMix64) Fork(label uint64) *SplitMix64 {
	return New(r.Uint64() ^ Hash64(label))
}

// Hash64 is a stateless 64-bit finalizer (SplitMix64's mixing function).
// It is used throughout the predictors for address hashing.
func Hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15 // avoid 0 as a fixed point of the mixer
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
