// Package opt implements the two parameter-optimization algorithms the
// paper evaluates (§7.1):
//
//   - Gradient Descent using the parameter-shift rule: each iteration
//     evaluates the cost at θ ± π/2 per parameter (2P evaluations), so
//     it needs many communication rounds but each round's classical work
//     is small — one parameter changes per evaluation.
//   - SPSA: each iteration evaluates two simultaneous random
//     perturbations regardless of P, so communication rounds are few but
//     every evaluation updates all parameters.
//
// Optimizers drive an Evaluator callback; the system models implement
// Evaluator with full timing accounting, so the optimizer's evaluation
// pattern is the communication pattern.
package opt

import (
	"fmt"
	"math"

	"qtenon/internal/rng"
	"sync"

	"qtenon/internal/par"
)

// Evaluator estimates the cost at a parameter vector.
//
// When Options.Parallelism > 1 the optimizers call the Evaluator from
// multiple goroutines at once, so it must be safe for concurrent use —
// pure functions and per-call simulator runs qualify; the stateful
// system models (internal/system, internal/baseline) accumulate timing
// per call and must stay on the serial default.
type Evaluator func(params []float64) (float64, error)

// Options configures an optimization run.
type Options struct {
	Iterations   int
	LearningRate float64 // GD step size
	ShiftScale   float64 // parameter-shift step (π/2 canonical)
	SPSAa        float64 // SPSA step-size numerator
	SPSAc        float64 // SPSA perturbation magnitude
	Seed         int64
	// Parallelism caps how many Evaluator calls run concurrently inside
	// one gradient (GD/Adam's 2P parameter-shift pairs) or perturbation
	// step (SPSA's two evals). Values ≤ 1 keep the serial evaluation
	// order; > 1 requires a goroutine-safe Evaluator. The evaluation
	// points, counts and resulting updates are identical either way.
	Parallelism int
}

// DefaultOptions matches the paper's setup: 10 iterations.
func DefaultOptions() Options {
	return Options{
		Iterations:   10,
		LearningRate: 0.1,
		ShiftScale:   math.Pi / 2,
		SPSAa:        0.2,
		SPSAc:        0.15,
		Seed:         1,
	}
}

// Result reports an optimization run.
type Result struct {
	Params      []float64
	History     []float64 // cost after each iteration
	Evaluations int       // total Evaluator calls
}

// validate checks run options. A zero-length parameter vector is
// allowed: gradient loops degrade to one plain evaluation per iteration
// (0-parameter workloads — e.g. the Clifford stabilizer family — have
// nothing to optimize but still exercise the full evaluation pipeline).
func (o Options) validate(nparams int) error {
	if o.Iterations <= 0 {
		return fmt.Errorf("opt: non-positive iteration count %d", o.Iterations)
	}
	if nparams < 0 {
		return fmt.Errorf("opt: negative parameter count %d", nparams)
	}
	return nil
}

// gradScratch is the reusable working memory of one optimization run's
// parameter-shift gradients: per-worker shifted parameter vectors plus
// the value/error assembly arrays. The optimizer allocates it once and
// every iteration's 2P evaluations reuse it — the gradient loop itself
// is allocation-free in steady state.
type gradScratch struct {
	shifted [][]float64
	vals    []float64
	errs    []error
}

// ensure sizes the scratch for p parameters and `slots` concurrent
// workers, growing lazily and keeping prior capacity.
func (s *gradScratch) ensure(p, slots int) {
	for len(s.shifted) < slots {
		s.shifted = append(s.shifted, nil)
	}
	for i := 0; i < slots; i++ {
		if cap(s.shifted[i]) < p {
			s.shifted[i] = make([]float64, p)
		}
		s.shifted[i] = s.shifted[i][:p]
	}
	if cap(s.vals) < 2*p {
		s.vals = make([]float64, 2*p)
		s.errs = make([]error, 2*p)
	}
	s.vals = s.vals[:2*p]
	s.errs = s.errs[:2*p]
}

// shiftGradient fills grad with the parameter-shift estimate at params:
// grad[i] = (E(θ+s·e_i) − E(θ−s·e_i)) / 2. The 2P evaluations run
// serially in the historical order when parallelism ≤ 1, or fan out
// across up to `parallelism` worker slots otherwise (par.DoScratch, so
// each concurrent evaluation owns a reused shifted-vector buffer); the
// gradient is assembled by index, so both paths produce identical
// values. It returns the number of evaluations performed (2P on
// success).
func shiftGradient(eval Evaluator, params []float64, shift float64, parallelism int, grad []float64, scr *gradScratch) (int, error) {
	p := len(params)
	if parallelism <= 1 {
		scr.ensure(p, 1)
		shifted := scr.shifted[0]
		for i := range params {
			copy(shifted, params)
			shifted[i] = params[i] + shift
			plus, err := eval(shifted)
			if err != nil {
				return 2 * i, err
			}
			shifted[i] = params[i] - shift
			minus, err := eval(shifted)
			if err != nil {
				return 2*i + 1, err
			}
			grad[i] = (plus - minus) / 2
		}
		return 2 * p, nil
	}
	scr.ensure(p, parallelism)
	vals, errs := scr.vals, scr.errs
	for k := range errs {
		errs[k] = nil
	}
	par.DoScratch(2*p, parallelism, func(slot, k int) {
		shifted := scr.shifted[slot]
		copy(shifted, params)
		i := k / 2
		if k%2 == 0 {
			shifted[i] = params[i] + shift
		} else {
			shifted[i] = params[i] - shift
		}
		vals[k], errs[k] = eval(shifted)
	})
	for _, err := range errs {
		if err != nil {
			return 2 * p, err
		}
	}
	for i := 0; i < p; i++ {
		grad[i] = (vals[2*i] - vals[2*i+1]) / 2
	}
	return 2 * p, nil
}

// evalPair evaluates two parameter vectors, concurrently when
// parallelism > 1 — SPSA's plus/minus perturbation pair.
func evalPair(eval Evaluator, a, b []float64, parallelism int) (va, vb float64, err error) {
	if parallelism <= 1 {
		if va, err = eval(a); err != nil {
			return va, vb, err
		}
		vb, err = eval(b)
		return va, vb, err
	}
	// Slot-partitioned results: the goroutine owns index 0, this frame
	// owns index 1, so neither writer touches shared state (the same
	// discipline parsafety enforces on par closures).
	var vals [2]float64
	var errs [2]error
	var wg sync.WaitGroup
	wg.Add(1)
	go func(slot int) {
		defer wg.Done()
		vals[slot], errs[slot] = eval(a)
	}(0)
	vals[1], errs[1] = eval(b)
	// Exactly one Done balances the Add(1) above and the spawned closure
	// runs one finite evaluation, so the join is structurally bounded.
	wg.Wait()
	va, vb = vals[0], vals[1]
	if errs[0] != nil {
		return va, vb, errs[0]
	}
	return va, vb, errs[1]
}

// GradientDescent minimizes eval with the parameter-shift rule.
func GradientDescent(eval Evaluator, initial []float64, o Options) (Result, error) {
	if err := o.validate(len(initial)); err != nil {
		return Result{}, err
	}
	params := append([]float64(nil), initial...)
	var res Result
	grad := make([]float64, len(params))
	var scr gradScratch
	for iter := 0; iter < o.Iterations; iter++ {
		n, err := shiftGradient(eval, params, o.ShiftScale, o.Parallelism, grad, &scr)
		res.Evaluations += n
		if err != nil {
			return res, err
		}
		for i := range params {
			params[i] -= o.LearningRate * grad[i]
		}
		cost, err := eval(params)
		if err != nil {
			return res, err
		}
		res.Evaluations++
		res.History = append(res.History, cost)
	}
	res.Params = params
	return res, nil
}

// SPSA minimizes eval with simultaneous perturbation stochastic
// approximation using Rademacher perturbations and the standard decaying
// gain sequences.
func SPSA(eval Evaluator, initial []float64, o Options) (Result, error) {
	if err := o.validate(len(initial)); err != nil {
		return Result{}, err
	}
	rng := rng.New(o.Seed)
	params := append([]float64(nil), initial...)
	var res Result
	plusP := make([]float64, len(params))
	minusP := make([]float64, len(params))
	delta := make([]float64, len(params))
	const (
		alpha = 0.602
		gamma = 0.101
		A     = 2.0
	)
	for iter := 0; iter < o.Iterations; iter++ {
		ak := o.SPSAa / math.Pow(float64(iter)+1+A, alpha)
		ck := o.SPSAc / math.Pow(float64(iter)+1, gamma)
		for i := range delta {
			if rng.Intn(2) == 0 {
				delta[i] = 1
			} else {
				delta[i] = -1
			}
			plusP[i] = params[i] + ck*delta[i]
			minusP[i] = params[i] - ck*delta[i]
		}
		plus, minus, err := evalPair(eval, plusP, minusP, o.Parallelism)
		if err != nil {
			return res, err
		}
		res.Evaluations += 2
		g := (plus - minus) / (2 * ck)
		for i := range params {
			params[i] -= ak * g * delta[i]
		}
		cost, err := eval(params)
		if err != nil {
			return res, err
		}
		res.Evaluations++
		res.History = append(res.History, cost)
	}
	res.Params = params
	return res, nil
}

// GDEvaluationsPerRun predicts the Evaluator call count of
// GradientDescent: (2·P + 1) per iteration.
func GDEvaluationsPerRun(nparams, iterations int) int {
	return (2*nparams + 1) * iterations
}

// SPSAEvaluationsPerRun predicts SPSA's call count: 3 per iteration,
// independent of the parameter count — the property §7.2 leans on.
func SPSAEvaluationsPerRun(iterations int) int { return 3 * iterations }
