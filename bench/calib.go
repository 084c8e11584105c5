package main

import "time"

// The timed metrics count time in reference seconds rather than seconds.
// On a host whose cores are shared with other guests, the same
// instructions run at a speed that drifts by 10–20% over minutes, in CPU
// time as well as in wall time, and a run cannot tell that drift from a
// change to the program. A calibration times a fixed loop of the
// benchmark's own, which no change to the program can move, in short
// samples between the cells of a pass (and between set-ups), and scales
// the CPU time the work took by the speed the samples saw. A reference
// second is the CPU time in which the loop runs refOpsPerSecond
// iterations: about a second on the 2-vCPU machine the benchmark was
// built on.
const (
	refOpsPerSecond = 75e6
	// refSampleOps is one sample's length, about 5 ms.
	refSampleOps = 400_000
)

// calibration holds the reference samples taken during one timed stretch.
type calibration struct {
	table [64 << 10]int8 // the loop's counters, in the L2 cache
	rates []float64      // iterations per CPU second, one per sample
	cpu   time.Duration  // CPU time all samples took
	sink  uint64         // keeps the loop's result alive
}

// sample runs the reference loop once and records its speed.
func (c *calibration) sample() {
	start := cpuTime()
	c.sink += refLoop(c.table[:], refSampleOps)
	d := cpuTime() - start
	c.cpu += d
	if d > 0 {
		c.rates = append(c.rates, refSampleOps/d.Seconds())
	}
}

// refSeconds converts CPU time spent next to the samples to reference
// seconds. The median sample leaves out samples that an interrupt or a
// burst of the garbage collector slowed.
func (c *calibration) refSeconds(d time.Duration) float64 {
	return d.Seconds() * median(c.rates) / refOpsPerSecond
}

// refLoop is the reference: n steps of a gshare-like two-bit predictor
// over table, on outcomes drawn from a fixed xorshift stream. It mixes
// arithmetic, data-dependent branches and table updates, as the
// simulator does, and returns its mispredictions.
func refLoop(table []int8, n int) uint64 {
	x, hist := uint64(88172645463325252), uint64(0)
	mask := uint64(len(table) - 1)
	var miss uint64
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		pc := (x >> 20) & 1023
		taken := (x&7 != 0) == (pc&1 == 0)
		j := (pc*0x9E3779B1 ^ hist) & mask
		c := table[j]
		if (c >= 0) != taken {
			miss++
		}
		if taken {
			if c < 3 {
				table[j] = c + 1
			}
			hist = hist<<1 | 1
		} else {
			if c > -4 {
				table[j] = c - 1
			}
			hist <<= 1
		}
	}
	return miss
}
