// Package inflight is the in-flight checkpoint queue the bias-free cores
// share. A core predicts at fetch and trains at commit, so every
// prediction still awaiting its update is a checkpoint here, oldest
// first; ISL-TAGE's Immediate Update Mimicker (§VI-C) reads them back.
//
// The queue is a power-of-two ring of preallocated slots. Each slot keeps
// the arrays its constructor gave it (table indices, tags, weight rows)
// for the life of the predictor and a new lookup overwrites them in
// place, so steady state allocates nothing at any update delay. The ring
// doubles only when every slot is in flight.
package inflight

// initialSlots covers immediate and short-delay updates without growth.
const initialSlots = 4

// Ring is a FIFO of checkpoints of type T stored in reusable slots.
type Ring[T any] struct {
	slots []T
	head  int
	n     int
	fresh func() T
}

// New returns an empty ring whose slots are built by fresh, which
// allocates each slot's arrays once.
func New[T any](fresh func() T) Ring[T] {
	r := Ring[T]{fresh: fresh}
	r.grow()
	return r
}

// Len returns the number of checkpoints in flight.
func (r *Ring[T]) Len() int { return r.n }

// At returns the i-th checkpoint in flight, 0 being the oldest.
func (r *Ring[T]) At(i int) *T { return &r.slots[(r.head+i)&(len(r.slots)-1)] }

// Next returns the free slot after the checkpoints in flight, growing the
// ring when none is free. The slot holds a stale checkpoint for the
// caller to overwrite; it joins the queue only on Push, so it also
// serves as scratch for a lookup that never goes in flight.
func (r *Ring[T]) Next() *T {
	if r.n == len(r.slots) {
		r.grow()
	}
	return r.At(r.n)
}

// Push appends the slot last returned by Next to the queue.
func (r *Ring[T]) Push() { r.n++ }

// Pop retires the oldest checkpoint; its slot becomes free.
func (r *Ring[T]) Pop() {
	r.head = (r.head + 1) & (len(r.slots) - 1)
	r.n--
}

// Reset retires every checkpoint in flight.
func (r *Ring[T]) Reset() { r.head, r.n = 0, 0 }

// Last returns the newest checkpoint in flight that satisfies match, or
// nil.
func (r *Ring[T]) Last(match func(*T) bool) *T {
	for i := r.n - 1; i >= 0; i-- {
		if cp := r.At(i); match(cp) {
			return cp
		}
	}
	return nil
}

// grow doubles the ring (or builds the first slots). It runs only when
// every slot is in flight, so the live checkpoints move over in order
// with their arrays and only the new half is built.
func (r *Ring[T]) grow() {
	size := 2 * len(r.slots)
	if size == 0 {
		size = initialSlots
	}
	slots := make([]T, size)
	for i := 0; i < r.n; i++ {
		slots[i] = *r.At(i)
	}
	for i := r.n; i < size; i++ {
		slots[i] = r.fresh()
	}
	r.slots, r.head = slots, 0
}
