//go:build simsan

package par_test

import (
	"os"
	"runtime"
	"testing"

	"qtenon/internal/par"
	"qtenon/internal/san"
)

// TestMain is the package's goroutine leak canary (DESIGN.md §15):
// the pool is the module's only persistent goroutine population, so
// after the suite runs and Shutdown drains it, the live count must
// return to the pre-suite baseline. A worker that misses its poison —
// or a test that strands a fan-out goroutine — fails the simsan build
// here.
func TestMain(m *testing.M) {
	baseline := runtime.NumGoroutine()
	code := m.Run()
	par.Shutdown()
	san.CheckGoroutineLeak("par.pool", baseline)
	os.Exit(code)
}

// Shutdown must be reentrant with respawn: drain, reuse, drain again.
func TestShutdownDrainsPool(t *testing.T) {
	par.SetWorkers(4)
	defer par.SetWorkers(0)

	baseline := runtime.NumGoroutine()
	n := 4 * par.SerialThreshold
	sums := make([]float64, n)
	par.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			sums[i] = 1
		}
	})
	par.Shutdown()
	san.CheckGoroutineLeak("par.pool", baseline)

	// The next dispatch respawns a fresh pool and still computes.
	got := par.SumFloat64(n, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += sums[i]
		}
		return s
	})
	if got != float64(n) {
		t.Fatalf("post-shutdown sum = %v, want %v", got, float64(n))
	}
}
