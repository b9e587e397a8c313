package san

import (
	"runtime"
	"time"
)

// CheckGoroutineLeak is the goroutine leak canary (DESIGN.md §15): it
// audits the process's goroutine
// high-water mark against a baseline captured before the suspect work
// ran. The scheduler is given time to settle — goroutines that have
// terminated but not yet been reaped do not count as leaks — by
// polling with exponential backoff; only a count that stays above the
// baseline after the settle window panics, naming the component.
//
// Callers gate on Enabled as with every sanitizer check; the function
// also self-gates so a stray unconditional call costs nothing in
// ordinary builds. Intended call sites are quiescence seams: TestMain
// after m.Run plus the pool drain, never inside concurrent work.
func CheckGoroutineLeak(component string, baseline int) {
	if !Enabled {
		return
	}
	// ~1.27s worst case: 1+2+4+…+640 ms. Exiting goroutines unwind in
	// microseconds; the generous window keeps slow CI machines quiet.
	for wait := time.Millisecond; wait < 700*time.Millisecond; wait *= 2 {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(wait)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		Failf(component, "goroutine leak: %d live goroutines, baseline %d — a spawned goroutine has no termination seam", n, baseline)
	}
}
