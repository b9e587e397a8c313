package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// covers asserts body visits every index in [0, n) exactly once.
func covers(t *testing.T, n int, launch func(mark func(i int))) {
	t.Helper()
	hits := make([]int32, n)
	launch(func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestForCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 7, chunkSize, chunkSize + 1, SerialThreshold - 1, SerialThreshold, SerialThreshold + 3, 3 * SerialThreshold} {
		covers(t, n, func(mark func(i int)) {
			For(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					mark(i)
				}
			})
		})
	}
}

func TestForForcedParallel(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	covers(t, 5*SerialThreshold, func(mark func(i int)) {
		For(5*SerialThreshold, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				mark(i)
			}
		})
	})
}

func TestDoCoversItems(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	for _, n := range []int{0, 1, 2, 9, 100} {
		covers(t, n, func(mark func(i int)) {
			Do(n, mark)
		})
	}
}

func TestSumFloat64MatchesSerial(t *testing.T) {
	n := 2*SerialThreshold + 137
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 1 / float64(i+1)
	}
	chunk := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += vals[i]
		}
		return s
	}
	SetWorkers(1)
	serial := SumFloat64(n, chunk)
	SetWorkers(8)
	parallel := SumFloat64(n, chunk)
	SetWorkers(0)
	// The chunked partition depends only on n, so serial and parallel
	// execution produce bit-identical sums.
	if serial != parallel {
		t.Fatalf("SumFloat64 not deterministic across worker counts: %v vs %v", serial, parallel)
	}
}

func TestSumComplexDeterministic(t *testing.T) {
	n := SerialThreshold + chunkSize/2
	chunk := func(lo, hi int) complex128 {
		var s complex128
		for i := lo; i < hi; i++ {
			s += complex(float64(i%13), 1/float64(i+1))
		}
		return s
	}
	SetWorkers(1)
	a := SumComplex(n, chunk)
	SetWorkers(6)
	b := SumComplex(n, chunk)
	SetWorkers(0)
	if a != b {
		t.Fatalf("SumComplex not deterministic: %v vs %v", a, b)
	}
}

// Concurrent For calls from independent goroutines must not interfere —
// the shape sweep generators produce (concurrent runs, each running
// parallel kernels).
func TestConcurrentJobs(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	const n = 2 * SerialThreshold
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sums := make([]float64, n)
			For(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					sums[i] = float64(i)
				}
			})
			got := SumFloat64(n, func(lo, hi int) float64 {
				var s float64
				for i := lo; i < hi; i++ {
					s += sums[i]
				}
				return s
			})
			want := float64(n) * float64(n-1) / 2
			if got != want {
				t.Errorf("sum = %v, want %v", got, want)
			}
		}()
	}
	wg.Wait()
}

func TestWorkersDefault(t *testing.T) {
	SetWorkers(0)
	if w := Workers(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("Workers() = %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	SetWorkers(3)
	if w := Workers(); w != 3 {
		t.Fatalf("Workers() = %d after SetWorkers(3)", w)
	}
	SetWorkers(0)
}

// A body panic must cancel the job early (siblings stop claiming
// chunks) and re-raise on the dispatching goroutine — same contract as
// a serial loop.
func TestDoPanicPropagates(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	const n = 64
	var executed atomic.Int32
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		Do(n, func(i int) {
			executed.Add(1)
			if i == 3 {
				panic("poisoned item 3")
			}
		})
	}()
	if recovered != "poisoned item 3" {
		t.Fatalf("recovered %v, want the body's panic value", recovered)
	}
	if got := executed.Load(); got > n {
		t.Fatalf("executed %d items of %d — abort re-ran chunks", got, n)
	}

	// The pool must survive a poisoned job: the panic aborted one job,
	// not the workers, so the next dispatch computes normally.
	covers(t, n, func(mark func(i int)) {
		Do(n, mark)
	})
}

// The serial path (one worker) re-raises the panic identically, so the
// contract does not depend on the pool.
func TestDoPanicSerial(t *testing.T) {
	SetWorkers(1)
	defer SetWorkers(0)
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		Do(4, func(i int) {
			if i == 2 {
				panic("serial poison")
			}
		})
	}()
	if recovered != "serial poison" {
		t.Fatalf("recovered %v, want the body's panic value", recovered)
	}
}

// A panicking For body cancels remaining chunks: with chunk-granular
// claims and an immediate first-chunk panic, the abort flag must stop
// the job well short of grinding through the whole index space on the
// panicking participant alone.
func TestForPanicAborts(t *testing.T) {
	SetWorkers(4)
	defer SetWorkers(0)
	const n = 8 * SerialThreshold
	var touched atomic.Int64
	var recovered any
	func() {
		defer func() { recovered = recover() }()
		For(n, func(lo, hi int) {
			touched.Add(int64(hi - lo))
			panic("first chunk poison")
		})
	}()
	if recovered == nil {
		t.Fatal("panic did not propagate out of For")
	}
	// Every participant can touch at most one chunk before observing the
	// abort flag; with 4 workers + the caller that bounds the damage far
	// below n.
	if got := touched.Load(); got > int64(8*chunkSize) {
		t.Fatalf("touched %d indices after a first-chunk panic, want early abort (≤ %d)", got, 8*chunkSize)
	}
}

// Nested dispatch must terminate at every pool width: an item of an
// outer job that dispatches an inner job may find every pool worker
// busy inside sibling outer items, so the inner job's caller has to be
// able to finish on its own. Each case runs under a deadline that names
// it, so a deadlock fails in seconds instead of at the test timeout.
func TestNestedDispatchTerminates(t *testing.T) {
	defer SetWorkers(0)
	const deadline = 10 * time.Second
	const inner = 2 * SerialThreshold
	// Each case returns the number of inner indices visited and the
	// number it should have visited.
	cases := []struct {
		name string
		run  func(w int) (got, want int64)
	}{
		{"Do->Do", func(w int) (int64, int64) {
			var n atomic.Int64
			Do(4*w, func(int) {
				Do(2*w, func(int) { n.Add(1) })
			})
			return n.Load(), int64(8 * w * w)
		}},
		{"Do->For", func(w int) (int64, int64) {
			var n atomic.Int64
			Do(4*w, func(int) {
				For(inner, func(lo, hi int) { n.Add(int64(hi - lo)) })
			})
			return n.Load(), int64(4 * w * inner)
		}},
	}
	for w := 2; w <= 8; w++ {
		SetWorkers(w)
		for _, c := range cases {
			done := make(chan [2]int64, 1)
			go func() {
				var got, want int64
				for round := 0; round < 20 && got == want; round++ {
					got, want = c.run(w)
				}
				done <- [2]int64{got, want}
			}()
			select {
			case r := <-done:
				if r[0] != r[1] {
					t.Fatalf("%s at SetWorkers(%d): visited %d inner indices, want %d", c.name, w, r[0], r[1])
				}
			case <-time.After(deadline):
				t.Fatalf("%s at SetWorkers(%d): nested dispatch did not finish within %v (deadlock)", c.name, w, deadline)
			}
		}
	}
}
