package metrics

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestRegistryStress hammers one registry from many goroutines doing
// everything at once — resolving instruments by name (shared and
// per-goroutine), updating them, and snapshotting mid-flight — which is
// the access pattern a scrape endpoint sees over a live machine. Run
// under -race in CI, this is the check that the registry's internal
// locking neither races nor deadlocks under full contention
// (DESIGN.md §15).
func TestRegistryStress(t *testing.T) {
	const (
		workers = 8
		iters   = 400
	)
	r := NewRegistry()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			own := fmt.Sprintf("worker%d.count", w)
			for k := 0; k < iters; k++ {
				// Shared instruments: resolution races with resolution.
				r.Counter("stress.shared").Inc()
				r.Gauge("stress.depth").Set(int64(k))
				r.Timer("stress.lat").Observe(1)
				// Per-goroutine instrument: resolution races with updates.
				r.Counter(own).Inc()
				if k%16 == 0 {
					// Observation races with everything above.
					_ = r.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()

	if got := r.Counter("stress.shared").Value(); got != workers*iters {
		t.Errorf("shared counter = %d, want %d", got, workers*iters)
	}
	if got := r.Timer("stress.lat").Count(); got != workers*iters {
		t.Errorf("timer count = %d, want %d", got, workers*iters)
	}
	if got := r.Gauge("stress.depth").High(); got != iters-1 {
		t.Errorf("gauge high-water = %d, want %d", got, iters-1)
	}
	for w := 0; w < workers; w++ {
		name := fmt.Sprintf("worker%d.count", w)
		if got := r.Counter(name).Value(); got != iters {
			t.Errorf("%s = %d, want %d", name, got, iters)
		}
	}

	// Quiescent snapshots must be deterministic and deep-equal: the
	// mid-flight snapshots above may observe torn cross-instrument
	// states, but once writers join, two observations agree exactly.
	a, b := r.Snapshot(), r.Snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("quiescent snapshots differ:\n%+v\n%+v", a, b)
	}
}
