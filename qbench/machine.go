package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"time"

	"qtenon/internal/backend"
	"qtenon/internal/opt"
	"qtenon/internal/report"
)

// timed wraps a machine so every Evaluate — including each vector of
// the batched parameter-shift path — is timed individually. Its
// EvaluateBatch hands the machine's own EvaluateBatch one vector at a
// time, which the backend.Batcher contract makes identical to the
// whole batch.
type timed struct {
	m     backend.Backend
	batch opt.BatchEvaluator
	evalStats
	// lat collects per-evaluation host latency (ns).
	lat []float64
	// cal, when set, runs a calibration after every evaluation, outside
	// the timed interval; calAt holds the index of the calibration
	// before each evaluation.
	cal   *calibrator
	calAt []int
	// after, when set, runs outside the timed interval after every
	// evaluation (the shadow replay).
	after func(params []float64, cost float64) error
}

// evalStats are one machine's evaluation totals over a run.
type evalStats struct {
	evals  int
	evalNs time.Duration // sum of evaluation latencies
	// last is the latest evaluation's latency; wrapNs sums the wall time
	// spent inside the wrapper, after-hook included (RunOn minus wrapNs
	// is the optimizer's own time).
	last   time.Duration
	wrapNs time.Duration
}

func newTimed(m backend.Backend, cal *calibrator) *timed {
	return &timed{m: m, batch: backend.BatchOf(m), cal: cal}
}

func (t *timed) Result() report.RunResult { return t.m.Result() }

func (t *timed) Evaluate(params []float64) (float64, error) {
	start := time.Now()
	v, err := t.m.Evaluate(params)
	return t.finish(start, params, v, err)
}

func (t *timed) EvaluateBatch(sets [][]float64, out []float64) error {
	for k, p := range sets {
		start := time.Now()
		err := t.batch(sets[k:k+1], out[k:k+1])
		if _, err := t.finish(start, p, out[k], err); err != nil {
			return err
		}
	}
	return nil
}

func (t *timed) finish(start time.Time, params []float64, v float64, err error) (float64, error) {
	d := time.Since(start)
	t.evals++
	defer func() { t.wrapNs += time.Since(start) }()
	if err != nil {
		return v, err
	}
	t.last = d
	t.evalNs += d
	t.lat = append(t.lat, float64(d.Nanoseconds()))
	if t.cal != nil {
		t.calAt = append(t.calAt, t.cal.last())
		t.cal.run()
	}
	if t.after != nil {
		if err := t.after(params, v); err != nil {
			return v, err
		}
	}
	return v, nil
}

// RunOn drives GD through EvaluateBatch, so timed must stay a Batcher.
var _ backend.Batcher = (*timed)(nil)

// heapSampler tracks the peak live heap, read from the runtime metrics
// right after a forced collection.
type heapSampler struct {
	s    []metrics.Sample
	peak uint64
}

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []metrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapSampler) sample() {
	runtime.GC()
	metrics.Read(h.s)
	if v := h.s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// runtimeCounts reads the cumulative heap allocation and GC cycle
// counts.
type runtimeCounts struct{ allocs, gcs uint64 }

var runtimeSamples = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/cycles/total:gc-cycles"}}

func readRuntime() runtimeCounts {
	metrics.Read(runtimeSamples)
	return runtimeCounts{allocs: runtimeSamples[0].Value.Uint64(), gcs: runtimeSamples[1].Value.Uint64()}
}

// samples are one machine's per-evaluation latencies (ns) over a phase:
// raw, and scaled to the reference host when the phase is calibrated.
type samples struct{ raw, scaled []float64 }

// sampleCap is each sample slice's preallocated capacity, well above a
// minute's evaluations, so the slices do not grow and move the peak heap
// with the sample count.
const sampleCap = 1 << 17

func newSamples() samples {
	return samples{raw: make([]float64, 0, sampleCap), scaled: make([]float64, 0, sampleCap)}
}

// add appends one repeat's latencies from t and returns the sum of
// their host-speed scales.
func (s *samples) add(t *timed) float64 {
	s.raw = append(s.raw, t.lat...)
	var sum float64
	for k, i := range t.calAt {
		f := t.cal.scale(i)
		s.scaled = append(s.scaled, t.lat[k]*f)
		sum += f
	}
	return sum
}

// repeat is one full workload run: fresh setup, then both machines'
// complete optimizations. It keeps only results and totals, never the
// machines, so a long run's live heap does not grow with its repeats.
type repeat struct {
	// run is both RunOn calls, setup and calibrations excluded; runRef
	// is run scaled to the reference host (0 when not calibrated).
	run    time.Duration
	runRef time.Duration
	qt, bl report.RunResult
	qtEval evalStats
	blEval evalStats
	// qtRunOn is the Qtenon RunOn wall time alone (for opt.self_us).
	qtRunOn time.Duration
	// allocs and gcs are the runtime counts across both RunOn calls.
	allocs, gcs uint64
	// attempted counts evaluations issued to either machine.
	attempted int
	nparams   int
	// shadow holds the traced run's replay totals.
	shadow shadowStats
}

// attach lets the traced run hook a shadow replay onto a repeat's
// freshly built machines.
type attach func(m machines, qt, bl *timed) (*shadow, error)

// runRepeat builds both machines and runs the full comparison. With a
// sink it records the latencies, the peak heap and, when the sink has a
// calibrator, the host-speed scales into it.
func runRepeat(wl workload, seed int64, sink *phase, hook attach) (repeat, error) {
	var r repeat
	m, err := wl.setup(seed)
	if err != nil {
		return r, err
	}
	r.nparams = m.w.NumParams()
	var cal *calibrator
	if sink != nil && sink.cal != nil {
		cal = sink.cal
		cal.reset()
		cal.run()
	}
	qt := newTimed(m.qt, cal)
	bl := newTimed(m.bl, cal)
	var sh *shadow
	if hook != nil {
		if sh, err = hook(m, qt, bl); err != nil {
			return r, err
		}
	}
	o := wl.options(m.in)
	var calWall time.Duration
	if cal != nil {
		calWall = cal.wall
	}
	before := readRuntime()
	start := time.Now()
	r.qt, err = backend.RunOn(qt, m.in.initial, wl.alg, o)
	r.qtRunOn = time.Since(start)
	if err == nil {
		r.bl, err = backend.RunOn(bl, m.in.initial, wl.alg, o)
		if err != nil {
			err = fmt.Errorf("baseline: %w", err)
		}
	} else {
		err = fmt.Errorf("qtenon: %w", err)
	}
	r.run = time.Since(start)
	after := readRuntime()
	if cal != nil {
		r.run -= cal.wall - calWall
	}
	if sink != nil {
		scales := sink.qt.add(qt) + sink.bl.add(bl)
		if n := len(qt.calAt) + len(bl.calAt); n > 0 {
			r.runRef = time.Duration(float64(r.run) * scales / float64(n))
		}
		// The last evaluation boundary, with both machines still live.
		sink.heap.sample()
		runtime.KeepAlive(m)
	}
	r.qtEval, r.blEval = qt.evalStats, bl.evalStats
	r.attempted = qt.evals + bl.evals
	r.allocs = after.allocs - before.allocs
	r.gcs = after.gcs - before.gcs
	if sh != nil {
		r.shadow = sh.stats()
	}
	return r, err
}

// setupSamples times n fresh setups of the workload — vqa.New plus
// system.New plus baseline.New — raw and scaled to the reference host.
// Each setup starts after a forced collection, so garbage left by
// earlier work is not charged to it, and a calibration runs after each
// collection, so calibrations and setups alike start on caches the
// collection has just swept.
func setupSamples(wl workload, seed int64, n int, cal *calibrator) (raw, scaled []float64, err error) {
	cal.reset()
	at := make([]int, 0, n)
	for i := 0; i < n; i++ {
		runtime.GC()
		cal.run()
		start := time.Now()
		if _, err := wl.setup(seed); err != nil {
			return nil, nil, err
		}
		raw = append(raw, time.Since(start).Seconds())
		at = append(at, cal.last())
	}
	runtime.GC()
	cal.run()
	for k, i := range at {
		scaled = append(scaled, raw[k]*cal.scale(i))
	}
	return raw, scaled, nil
}
