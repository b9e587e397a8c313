package main

import (
	"time"
)

// Host-speed scaling.
//
// The reference host is a 2-vCPU VM on a shared machine. Neighbours
// contending for a vCPU's core slow the statevector kernels and the
// pulse pipeline alike by up to 2×, in bursts from milliseconds to
// minutes long, while a latency-bound spin loop barely moves. Such a
// swing is the host's, not the program's, and it is far wider than any
// regression bound worth keeping. So the end-to-end run interleaves a
// short fixed calibration with the work it times — one before a repeat's
// first evaluation and one after every evaluation (and every setup),
// always outside the timed interval — and scales each host time by
// calRefNs over the median of the three calibrations around it. Every
// end-to-end time is thus reported as its equivalent on the reference
// host with no neighbour contending. The calibration is the benchmark's
// own code, independent of the program, so a faster or slower program
// moves the scaled times as it moves the raw ones; the report prints the
// raw times next to them. The three-calibration median keeps one
// calibration that an interrupt happened to slow from discounting the
// evaluations next to it; a wider window tracks short bursts of
// contention worse (on qaoa64-spsa, nine calibrations left twice the
// run-to-run spread of p95 that three did).

const (
	// calAmps sizes the calibration's statevector: 2^16 amplitudes, the
	// SoA re/im arrays of a 16-qubit state (1 MiB).
	calAmps = 1 << 16
	// calKeys sizes its hash table: calKeys inserts, then 2×calKeys
	// lookups, half of them misses.
	calKeys = 5000
	// calRefNs is one calibration's time on the reference host (2-vCPU
	// Intel Xeon VM, go1.24.0) with no neighbour contending: the low end
	// of its readings over an hour of sampling.
	calRefNs = 0.58e6
	// calWindow is how many calibrations around a timed interval its
	// scale takes the median of.
	calWindow = 3
)

// calibrator is the fixed calibration workload: four single-qubit
// rotation sweeps over a 16-qubit SoA state (the shape of the dense
// statevector kernels) and a hash-table fill and lookup (the shape of
// the pulse pipeline's tables). Its state is allocated once, so a
// calibration allocates nothing.
type calibrator struct {
	re, im []float64
	table  map[int]int
	ns     []float64 // the calibrations so far
	wall   time.Duration
}

func newCalibrator() *calibrator {
	return &calibrator{
		re:    make([]float64, calAmps),
		im:    make([]float64, calAmps),
		table: make(map[int]int, calKeys),
	}
}

// run times one calibration and appends it to c.ns.
func (c *calibrator) run() {
	start := time.Now()
	for i := range c.re {
		c.re[i], c.im[i] = 1/256.0, 0
	}
	const cs, sn = 0.995, 0.0998 // a rotation by 0.2 rad
	for pass := 0; pass < 4; pass++ {
		stride := 1 << (4*pass + 1)
		for base := 0; base < calAmps; base += 2 * stride {
			for i := base; i < base+stride; i++ {
				j := i + stride
				ar, ai, br, bi := c.re[i], c.im[i], c.re[j], c.im[j]
				c.re[i], c.im[i] = cs*ar-sn*bi, cs*ai+sn*br
				c.re[j], c.im[j] = cs*br-sn*ai, cs*bi+sn*ar
			}
		}
	}
	clear(c.table)
	for i := 0; i < calKeys; i++ {
		c.table[i*7919] = i
	}
	sum := 0
	for i := 0; i < 2*calKeys; i++ {
		sum += c.table[i*7919]
	}
	if sum != calKeys*(calKeys-1)/2 {
		panic("calibration: hash table lost a key")
	}
	d := time.Since(start)
	c.wall += d
	c.ns = append(c.ns, float64(d.Nanoseconds()))
}

// last is the index of the latest calibration.
func (c *calibrator) last() int { return len(c.ns) - 1 }

// scale is the factor that turns a host time measured between
// calibrations i and i+1 into its reference-host equivalent: calRefNs
// over the median of calibrations i−1 to i+1 (shifted inward at either
// end of the sequence).
func (c *calibrator) scale(i int) float64 {
	lo := max(0, i+1-calWindow/2-1)
	hi := min(len(c.ns), lo+calWindow)
	lo = max(0, hi-calWindow)
	return calRefNs / median(c.ns[lo:hi])
}

// reset forgets the calibrations so far, keeping the state.
func (c *calibrator) reset() {
	c.ns = c.ns[:0]
	c.wall = 0
}
