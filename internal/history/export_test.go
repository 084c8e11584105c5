package history

// FoldBits folds an explicit bit vector (index 0 = newest) down to width
// bits using the same group-XOR definition as FoldSet's registers: the
// reference that FoldSet and FoldWords are tested against.
func FoldBits(bits []bool, width int) uint64 {
	if width < 1 || width > 63 {
		panic("history: fold width out of range")
	}
	var v uint64
	for i, b := range bits {
		if b {
			v ^= 1 << (i % width)
		}
	}
	return v
}
