package main

import (
	"runtime"
	"runtime/debug"
	"time"

	"qtenon/internal/par"
)

// fingerprint identifies the host and build a record was taken on, so a
// regression and a different machine do not look alike.
type fingerprint struct {
	CPU        string
	NProc      int
	GOMAXPROCS int
	ParWorkers int
	GoVersion  string
	Commit     string
	Seed       int64
}

func hostFingerprint(seed int64) fingerprint {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fingerprint{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		ParWorkers: par.Workers(),
		GoVersion:  runtime.Version(),
		Commit:     commit,
		Seed:       seed,
	}
}

// triadElems sizes each STREAM triad array: three 128 MiB arrays, beyond
// the last-level cache of the reference host (a 2-core Xeon VM reporting
// a 300 MiB L3).
const triadElems = 16 << 20

// triadBytesPerNs measures a STREAM-like triad a[i] = b[i] + s·c[i]
// across the repo's worker pool (the pool the statevector kernels run
// on) and returns the best pass's bandwidth, counting 24 bytes per
// element (two reads, one write), as STREAM does.
func triadBytesPerNs() float64 {
	a := make([]float64, triadElems)
	b := make([]float64, triadElems)
	c := make([]float64, triadElems)
	par.For(triadElems, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			b[i], c[i] = 1, 2
		}
	})
	const s = 3.0
	best := time.Duration(1<<63 - 1)
	for pass := 0; pass < 5; pass++ {
		start := time.Now()
		par.For(triadElems, func(lo, hi int) {
			aa, bb, cc := a[lo:hi], b[lo:hi], c[lo:hi]
			for i := range aa {
				aa[i] = bb[i] + s*cc[i]
			}
		})
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(24*triadElems) / float64(best.Nanoseconds())
}
