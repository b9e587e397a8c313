package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"qtenon/internal/circuit"
	"qtenon/internal/compiler"
	"qtenon/internal/host"
	"qtenon/internal/metrics"
	"qtenon/internal/pipeline"
	"qtenon/internal/qcc"
	"qtenon/internal/qsim"
	"qtenon/internal/qsim/engine"
	"qtenon/internal/quantum"
	"qtenon/internal/report"
	"qtenon/internal/rng"
	"qtenon/internal/route"
	"qtenon/internal/sched"
	"qtenon/internal/sim"
	"qtenon/internal/slt"
	"qtenon/internal/system"
	"qtenon/internal/tilelink"
	"qtenon/internal/vqa"
)

// layer names one module whose public calls the shadow times.
type layer int

const (
	layerCompiler   layer = iota // Program.Load / AppendDiff, ApplyDeltas
	layerPipeline                // pipeline.Pipeline.Run
	layerCircuit                 // Circuit.BindInto, circuit.Duration
	layerRoute                   // Router.SelectWidth, route.NewSimulator
	layerQsimRun                 // engine.Simulator.Run
	layerQsimSample              // engine.Simulator.Sample
	layerCost                    // Workload.Cost
	layerTilelink                // TransferReuse, .measure deposit, Barrier.MarkRange
	layerSched                   // BatchInterval, PlanBatches, Compute
	layerSim                     // sim.Engine At/Run
	numLayers
)

// layerMetric is each layer's per_layer metric name.
var layerMetric = [numLayers]string{
	layerCompiler:   "compiler.busy_us",
	layerPipeline:   "pipeline.busy_us",
	layerCircuit:    "circuit.bind_us",
	layerRoute:      "route.select_us",
	layerQsimRun:    "qsim.run_us",
	layerQsimSample: "qsim.sample_us",
	layerCost:       "vqa.cost_us",
	layerTilelink:   "tilelink.busy_us",
	layerSched:      "sched.busy_us",
	layerSim:        "sim.busy_us",
}

// chipLayers are the layers the baseline machine runs on identical
// inputs (bind, route, simulate, sample, cost).
var chipLayers = []layer{layerCircuit, layerRoute, layerQsimRun, layerQsimSample, layerCost}

// fidelityNames are the registry counters the shadow must reproduce
// exactly after every evaluation.
var fidelityNames = [numCounters]string{
	cSLTLookups: "slt.lookups", cSLTHits: "slt.hits", cSLTQSpaceHits: "slt.qspace_hits",
	cPulses: "pulse.generated", cBeats: "tilelink.beats_issued", cEvents: "sim.events_executed",
}

// Indices into fidelityNames.
const (
	cSLTLookups = iota
	cSLTHits
	cSLTQSpaceHits
	cPulses
	cBeats
	cEvents
	numCounters
)

// hostResultBase mirrors the Qtenon machine's result-synchronization
// address.
const hostResultBase = 0x9000_0000

// shadow is a second Qtenon stack built from the same configuration as
// the machine under test. It replays each evaluation's parameter vector
// through the modules' public functions, timing every call, and checks
// that it reproduces the machine's cost, simulated breakdown and
// counters exactly — so its per-layer host times describe the work the
// machine did.
type shadow struct {
	cfg      system.Config
	w        *vqa.Workload
	cacheCfg qcc.Config
	cache    *qcc.Cache
	bank     *slt.Bank
	pipe     *pipeline.Pipeline
	prog     *compiler.Program
	bus      *tilelink.Bus
	rbq      *tilelink.RBQ
	barrier  *tilelink.Barrier
	eng      sim.Engine
	clock    sim.Clock
	reg      *metrics.Registry

	router route.Router
	timing circuit.Timing
	sims   [route.NumMethods]engine.Simulator
	rng    *rand.Rand

	cur           []float64
	loaded        bool
	now           sim.Time
	measureCursor int
	breakdown     report.Breakdown

	deltas []compiler.Delta
	beats  []uint64
	data   []uint64
	bound  *circuit.Circuit

	shadowStats
	// lastChip is the latest evaluation's chip-layer time (for the
	// baseline residual).
	lastChip    time.Duration
	machineRegs []*metrics.Counter
	shadowRegs  []*metrics.Counter
}

// shadowStats are a shadow's totals over one run: per-layer host time,
// work counts, and the paired baseline residual.
type shadowStats struct {
	busy       [numLayers]time.Duration
	evals      int
	deltaCount int
	counters   [numCounters]int64
	method     route.Method
	fusedOps   int
	blResidual time.Duration
	blEvals    int
}

// newShadow builds the shadow stack for cfg exactly as system.New builds
// the machine (all-to-all connectivity, ideal chip).
func newShadow(cfg system.Config, w *vqa.Workload, machine *metrics.Registry) (*shadow, error) {
	if cfg.Coupling != nil || cfg.Noise.Enabled() {
		return nil, fmt.Errorf("shadow: only the ideal all-to-all machine is replayed")
	}
	s := &shadow{
		cfg:      cfg,
		w:        w,
		cacheCfg: qcc.DefaultConfig(w.NQubits()),
		clock:    sim.NewClock(cfg.ControllerHz),
		reg:      metrics.NewRegistry(),
		router:   route.Router{DenseLimit: quantum.ExactLimit, Force: cfg.Method},
		timing:   circuit.DefaultTiming(),
		rng:      rng.New(cfg.Seed),
	}
	var err error
	if s.cache, err = qcc.NewCache(s.cacheCfg); err != nil {
		return nil, err
	}
	s.bank = slt.NewBank(w.NQubits(), s.cacheCfg.PulseEntries)
	pcfg := pipeline.Config{PGUs: cfg.PGUs, PGULatency: cfg.PGULatency, UseSLT: cfg.UseSLT, Timing: circuit.DefaultTiming()}
	if s.pipe, err = pipeline.New(pcfg, s.cache, s.bank); err != nil {
		return nil, err
	}
	busCfg := cfg.Bus
	busCfg.Seed = cfg.Seed
	if s.bus, err = tilelink.NewBus(busCfg); err != nil {
		return nil, err
	}
	if s.prog, err = compiler.Compile(w.Circuit, s.cacheCfg); err != nil {
		return nil, err
	}
	s.rbq = tilelink.NewRBQ(busCfg.Tags, 8, 1<<20)
	s.barrier = tilelink.NewBarrier()
	s.eng.Instrument(s.reg)
	s.bus.Instrument(s.reg)
	s.rbq.Instrument(s.reg)
	s.barrier.Instrument(s.reg)
	s.pipe.Instrument(s.reg)
	for _, name := range fidelityNames {
		s.machineRegs = append(s.machineRegs, machine.Counter(name))
		s.shadowRegs = append(s.shadowRegs, s.reg.Counter(name))
	}
	return s, nil
}

// lap charges the time since t to layer l and returns the new start.
func (s *shadow) lap(l layer, t time.Time) time.Time {
	now := time.Now()
	s.busy[l] += now.Sub(t)
	return now
}

// transferCycles runs one bus transfer of `beats` write beats.
func (s *shadow) transferCycles(beats int) (int64, error) {
	if beats <= 0 {
		return 0, nil
	}
	if cap(s.beats) < beats {
		s.beats = make([]uint64, beats)
	}
	payload := s.beats[:beats]
	for i := range payload {
		payload[i] = 0
	}
	res, err := tilelink.TransferReuse(s.bus, s.rbq, hostResultBase, beats, true, payload, s.data[:0])
	s.data = res.Data
	return res.Cycles, err
}

// Evaluate replays one Qtenon evaluation: q_update* → q_gen → q_run ∥
// q_acquire, with the machine's accounting.
func (s *shadow) Evaluate(params []float64) (float64, error) {
	s.evals++
	cfg := s.cfg
	nq := s.w.NQubits()
	chipBefore := s.chipTime()
	var hostPrep, commPrep sim.Time
	t := time.Now()

	if !s.loaded {
		if err := s.prog.Load(s.cache, params); err != nil {
			return 0, err
		}
		t = s.lap(layerCompiler, t)
		beats := (s.prog.TotalEntries()*9 + cfg.Bus.BeatBytes - 1) / cfg.Bus.BeatBytes
		cycles, err := s.transferCycles(beats)
		if err != nil {
			return 0, err
		}
		t = s.lap(layerTilelink, t)
		commPrep += s.clock.Cycles(cycles)
		hostPrep += cfg.Core.Time(cfg.Costs.IncrementalCompile(len(params)))
		s.cur = append(s.cur[:0], params...)
		s.loaded = true
	} else if cfg.Incremental {
		deltas, err := s.prog.AppendDiff(s.deltas[:0], s.cur, params)
		s.deltas = deltas
		if err != nil {
			return 0, err
		}
		if err := compiler.ApplyDeltas(s.cache, deltas); err != nil {
			return 0, err
		}
		t = s.lap(layerCompiler, t)
		s.deltaCount += len(deltas)
		hostPrep += cfg.Core.Time(cfg.Costs.IncrementalCompile(len(deltas)))
		commPrep += sim.Time(len(deltas)) * s.clock.Cycles(host.RoCCIssueCycles)
		s.cur = append(s.cur[:0], params...)
	} else {
		return 0, fmt.Errorf("shadow: non-incremental machines are not replayed")
	}

	pipeRes, err := s.pipe.Run(s.prog.Items)
	if err != nil {
		return 0, err
	}
	t = s.lap(layerPipeline, t)
	pulsePrep := s.clock.Cycles(pipeRes.Cycles)

	s.bound = s.w.Circuit.BindInto(s.bound, params)
	shot := circuit.Duration(s.bound, s.timing)
	t = s.lap(layerCircuit, t)
	m, _, err := s.router.SelectWidth(s.bound, nq)
	if err != nil {
		return 0, err
	}
	eng := s.sims[m]
	if eng == nil || eng.NQubits() != s.bound.NQubits {
		if eng, err = route.NewSimulator(m, s.bound.NQubits); err != nil {
			return 0, err
		}
		s.sims[m] = eng
	}
	t = s.lap(layerRoute, t)
	if err := eng.Run(s.bound); err != nil {
		return 0, err
	}
	t = s.lap(layerQsimRun, t)
	outcomes := eng.Sample(cfg.Shots, s.rng)
	t = s.lap(layerQsimSample, t)
	if m != s.method {
		s.method = m
		s.fusedOps = 0
		if m == route.Dense {
			var fp qsim.FusedProgram
			fp.Compile(s.bound.Gates)
			s.fusedOps = fp.NumOps()
		}
		t = time.Now() // the fused-op count is the benchmark's own work
	}

	k := 1
	if cfg.Batching {
		k = sched.BatchInterval(cfg.Bus.BeatBytes*8, nq)
	}
	batches := sched.PlanBatches(cfg.Shots, k)
	t = s.lap(layerSched, t)

	wordsPerShot := (nq + 63) / 64
	for i, o := range outcomes {
		idx := (s.measureCursor + i*wordsPerShot) % s.cacheCfg.MeasureEntries
		if err := s.cache.WriteMeasure(idx, o, qcc.HardwareAccess); err != nil {
			return 0, err
		}
	}
	s.measureCursor = (s.measureCursor + len(outcomes)*wordsPerShot) % s.cacheCfg.MeasureEntries
	batchBytes := k * wordsPerShot * 8
	cycles, err := s.transferCycles((batchBytes + cfg.Bus.BeatBytes - 1) / cfg.Bus.BeatBytes)
	if err != nil {
		return 0, err
	}
	s.barrier.MarkRange(hostResultBase, len(batches), uint64(batchBytes))
	t = s.lap(layerTilelink, t)

	tl := sched.Compute(sched.TimelineInput{
		Mode:             cfg.Sync,
		HostPrep:         hostPrep,
		CommPrep:         commPrep,
		PulsePrep:        pulsePrep,
		ShotTime:         shot + cfg.ADI.RoundTrip(),
		Batches:          batches,
		TransferPerBatch: s.clock.Cycles(cycles),
		HostPerShot:      cfg.Core.Time(cfg.Costs.PostProcess(1, nq)),
		HostPerBatch:     cfg.Core.Time(cfg.Costs.HostPerDelivery),
		HostTail:         cfg.Core.Time(cfg.Costs.ParamUpdate(s.w.NumParams())),
	})
	t = s.lap(layerSched, t)
	s.breakdown.Quantum += tl.Quantum
	s.breakdown.PulseGen += tl.ExposedPulse
	s.breakdown.HostComp += tl.ExposedHost
	s.breakdown.Comm += tl.ExposedComm

	// The machine lays each phase out as one engine event; the shadow
	// schedules the same events (span recording is the machine's own
	// optional tracer, so the events here are empty).
	t0 := s.now
	qStart := t0 + hostPrep + commPrep + pulsePrep
	qEnd := qStart + tl.Quantum
	tail := tl.Total - (hostPrep + commPrep + pulsePrep + tl.Quantum)
	noop := func() {}
	s.eng.At(t0, noop)
	s.eng.At(t0+hostPrep, noop)
	s.eng.At(t0+hostPrep+commPrep, noop)
	s.eng.At(qStart, noop)
	end := t0 + tl.Total
	if tail > 0 {
		s.eng.At(qEnd, noop)
	}
	if end < qEnd {
		end = qEnd
	}
	s.eng.At(end, noop)
	s.now = s.eng.Run()
	t = s.lap(layerSim, t)

	cost := s.w.Cost(outcomes)
	s.lap(layerCost, t)
	s.lastChip = s.chipTime() - chipBefore
	return cost, nil
}

// chipTime is the host time charged so far to the chip layers.
func (s *shadow) chipTime() time.Duration {
	var d time.Duration
	for _, l := range chipLayers {
		d += s.busy[l]
	}
	return d
}

// check compares the shadow's state after an evaluation with the
// machine's: cost bits, cumulative simulated breakdown, and registry
// counters must all be equal.
func (s *shadow) check(machineCost, shadowCost float64, machine report.RunResult) error {
	if math.Float64bits(machineCost) != math.Float64bits(shadowCost) {
		return fmt.Errorf("evaluation %d: shadow cost %v, machine %v", s.evals, shadowCost, machineCost)
	}
	if machine.Breakdown != s.breakdown {
		return fmt.Errorf("evaluation %d: shadow breakdown %v, machine %v", s.evals, s.breakdown, machine.Breakdown)
	}
	for i, name := range fidelityNames {
		if m, sh := s.machineRegs[i].Value(), s.shadowRegs[i].Value(); m != sh {
			return fmt.Errorf("evaluation %d: shadow %s = %d, machine %d", s.evals, name, sh, m)
		}
	}
	return nil
}

// stats returns the run's totals, with the shadow's final counters.
func (s *shadow) stats() shadowStats {
	st := s.shadowStats
	for i, c := range s.shadowRegs {
		st.counters[i] = c.Value()
	}
	return st
}
