package main

import (
	"fmt"

	"qtenon/internal/backend"
	"qtenon/internal/baseline"
	"qtenon/internal/host"
	"qtenon/internal/opt"
	"qtenon/internal/rng"
	"qtenon/internal/system"
	"qtenon/internal/vqa"
)

// shots is the per-evaluation shot count of every workload (the paper's
// 500, §7.1).
const shots = 500

// workload is one named closed-loop hybrid optimization: the full
// Qtenon-vs-baseline comparison of one circuit under one optimizer.
type workload struct {
	name       string
	why        string
	kind       vqa.Kind
	qubits     int
	alg        backend.Algorithm
	iterations int
	// paper is the paper's end-to-end speedup for this point (Boom core,
	// EXPERIMENTS.md Figures 11/12); 0 when the repo records none.
	paper float64
}

// workloads are the benchmark's named workloads. vqa.New supplies the
// paper's layer counts: VQE 3 layers (16q → 48 params), QAOA 5 layers
// (10 params).
var workloads = []workload{
	{
		name:       "vqe16-gd",
		why:        "dense 16-qubit statevector dominates host time; one parameter changes per evaluation",
		kind:       vqa.VQE,
		qubits:     16,
		alg:        backend.GD,
		iterations: 1,
	},
	{
		name:       "qaoa64-spsa",
		why:        "product surrogate keeps qsim cheap; every evaluation rewrites all parameters, so the SLT misses and the pulse pipeline dominates",
		kind:       vqa.QAOA,
		qubits:     64,
		alg:        backend.SPSA,
		iterations: 10,
		paper:      14.9,
	},
	{
		name:   "qaoa64-gd",
		why:    "same circuit on the SLT hit path (one parameter changes per evaluation); the paper's Fig. 11 headline point",
		kind:   vqa.QAOA,
		qubits: 64,
		alg:    backend.GD,
		// Not the figure's 10 iterations: one evaluation in 21 is the
		// all-parameter update on the SLT miss path, and at 10
		// iterations those are 11/210 = 5.2% of evaluations, putting
		// p95 on the cliff between the hit and miss modes; at 2 they
		// are 3/42 and p95 sits inside the miss mode.
		iterations: 2,
		paper:      14.7,
	},
}

func findWorkload(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// inputs are the generated inputs of one workload seed; the program
// receives nothing else that depends on the seed.
type inputs struct {
	initial     []float64
	machineSeed int64
	spsaSeed    int64
}

// deriveInputs draws the starting parameters (the workload's
// deterministic start point jittered by ±0.1), both machines' chip/bus
// seed and the SPSA perturbation seed from one workload seed.
func deriveInputs(w *vqa.Workload, seed int64) inputs {
	r := rng.New(seed)
	initial := make([]float64, len(w.InitialParams))
	for i, p := range w.InitialParams {
		initial[i] = p + 0.2*(r.Float64()-0.5)
	}
	return inputs{initial: initial, machineSeed: r.Int63(), spsaSeed: r.Int63()}
}

func (wl workload) options(in inputs) opt.Options {
	o := opt.DefaultOptions()
	o.Iterations = wl.iterations
	o.Seed = in.spsaSeed
	return o
}

// expectedEvaluations is the optimizer's documented evaluation count.
func (wl workload) expectedEvaluations(nparams int) int {
	if wl.alg == backend.SPSA {
		return opt.SPSAEvaluationsPerRun(wl.iterations)
	}
	return opt.GDEvaluationsPerRun(nparams, wl.iterations)
}

func qtenonConfig(seed int64) system.Config {
	c := system.DefaultConfig(host.BoomL())
	c.Shots = shots
	c.Seed = seed
	return c
}

func baselineConfig(seed int64) baseline.Config {
	c := baseline.DefaultConfig()
	c.Shots = shots
	c.Seed = seed
	return c
}

// machines is one freshly built comparison: the workload, its generated
// inputs, and a Qtenon and a baseline machine bound to it.
type machines struct {
	w  *vqa.Workload
	in inputs
	qt *system.System
	bl *baseline.System
}

// setup builds the workload and both machines — the work setup_s times.
func (wl workload) setup(seed int64) (machines, error) {
	w, err := vqa.New(wl.kind, wl.qubits)
	if err != nil {
		return machines{}, err
	}
	in := deriveInputs(w, seed)
	qt, err := system.New(qtenonConfig(in.machineSeed), w)
	if err != nil {
		return machines{}, fmt.Errorf("system.New: %w", err)
	}
	bl, err := baseline.New(baselineConfig(in.machineSeed), w)
	if err != nil {
		return machines{}, fmt.Errorf("baseline.New: %w", err)
	}
	return machines{w: w, in: in, qt: qt, bl: bl}, nil
}
