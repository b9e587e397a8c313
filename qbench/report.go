package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"qtenon/internal/report"
	"qtenon/internal/route"
)

// setupRounds is how many fresh setups setup_s takes the median of.
const setupRounds = 101

// gcBackstop is the heap size at which the collector runs inside a
// timed interval after all; one repeat allocates far less.
const gcBackstop = 1 << 30

// endToEnd measures the untraced workload and reports the end-to-end
// metrics. Host times are scaled to the reference host (hostspeed.go);
// the report prints them raw as well.
func (b *bench) endToEnd(g *gate, dur time.Duration) (result, error) {
	// Collections run between repeats and setups (both force one first),
	// never inside a timed interval: a cycle that happened to overlap a
	// few evaluations would set the tail latencies by where it fell. The
	// program's allocation shows in heap_peak_mb here and in
	// runtime.allocs_per_eval and runtime.gc_cycles of the traced run,
	// which keeps the default collector. The memory limit is a backstop.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(gcBackstop))
	p, err := b.measure(g, dur, nil, true)
	if err != nil {
		return result{}, err
	}
	var runs, rawRuns []float64
	for _, r := range p.repeats {
		runs = append(runs, r.runRef.Seconds())
		rawRuns = append(rawRuns, r.run.Seconds())
	}
	calNs := append([]float64(nil), p.cal.ns...)
	rawSetups, setups, err := setupSamples(b.wl, b.seed, setupRounds, p.cal)
	if err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	qt, bl := sortedCopy(p.qt.scaled), sortedCopy(p.bl.scaled)
	first := p.repeats[0]
	speedup := float64(first.bl.Breakdown.Total()) / float64(first.qt.Breakdown.Total())
	m := map[string]metric{
		"run_s":                {median(runs), "s"},
		"qtenon_eval_ms_p50":   {quantile(qt, 0.50) / 1e6, "ms"},
		"qtenon_eval_ms_p95":   {quantile(qt, 0.95) / 1e6, "ms"},
		"baseline_eval_ms_p50": {quantile(bl, 0.50) / 1e6, "ms"},
		"baseline_eval_ms_p95": {quantile(bl, 0.95) / 1e6, "ms"},
		"setup_s":              {median(setups), "s"},
		"heap_peak_mb":         {float64(p.heap.peak) / (1 << 20), "MB"},
		"sim_speedup":          {speedup, "x"},
	}
	fmt.Fprintf(b.out, "host speed: calibration median %.4g ms in the last repeat (reference %.4g ms)\n",
		median(calNs)/1e6, calRefNs/1e6)
	fmt.Fprintln(b.out, "end-to-end (host time scaled to the reference host unless marked; raw in brackets):")
	b.summary("run_s", m["run_s"].Value, "s", runs, 1, fmt.Sprintf("[raw %.6g] median of repeats", median(rawRuns)))
	for _, mach := range []struct {
		name string
		s    samples
	}{{"qtenon", p.qt}, {"baseline", p.bl}} {
		b.summary(mach.name+"_eval_ms_p50", m[mach.name+"_eval_ms_p50"].Value, "ms", mach.s.scaled, 1e-6,
			fmt.Sprintf("[raw %.6g] over all evaluations", median(mach.s.raw)/1e6))
		b.summary(mach.name+"_eval_ms_p95", m[mach.name+"_eval_ms_p95"].Value, "ms", mach.s.scaled, 1e-6,
			fmt.Sprintf("[raw %.6g] over all evaluations", quantile(sortedCopy(mach.s.raw), 0.95)/1e6))
	}
	b.summary("setup_s", m["setup_s"].Value, "s", setups, 1, fmt.Sprintf("[raw %.6g] median of setups", median(rawSetups)))
	fmt.Fprintf(b.out, "  %-26s %14.6g %-6s peak live heap at the end of each repeat\n", "heap_peak_mb", m["heap_peak_mb"].Value, "MB")
	fmt.Fprintf(b.out, "  %-26s %14.6g %-6s of %d evaluations attempted\n", "failed_frac", float64(b.failed)/float64(b.attempted), "", b.attempted)
	fmt.Fprintf(b.out, "  %-26s %14.6g %-6s simulated, baseline/Qtenon Breakdown.Total(); %s\n", "sim_speedup", speedup, "x", b.paperNote(speedup))
	return result{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// paperNote compares a simulated speedup with the paper's figure.
func (b *bench) paperNote(speedup float64) string {
	if b.wl.paper == 0 {
		return "paper: unvalidated (no reference in repo)"
	}
	return fmt.Sprintf("paper %.1fx (64q QAOA, Boom, EXPERIMENTS.md), relative error %+.1f%%",
		b.wl.paper, 100*(speedup/b.wl.paper-1))
}

// traced runs half the time untraced and half with the shadow replay,
// and reports the per-layer metrics.
func (b *bench) traced(g *gate, dur time.Duration) (result, error) {
	plain, err := b.measure(g, dur/2, nil, false)
	if err != nil {
		return result{}, err
	}
	tr, err := b.measure(g, dur/2, attachShadow, false)
	if err != nil {
		return result{}, err
	}

	// Untraced runtime counts and Qtenon evaluation time.
	var plainEval time.Duration
	var plainEvals, allEvals int
	var allocs, gcs uint64
	for _, r := range plain.repeats {
		plainEval += r.qtEval.evalNs
		plainEvals += r.qtEval.evals
		allEvals += r.qtEval.evals + r.blEval.evals
		allocs += r.allocs
		gcs += r.gcs
	}

	// Traced per-layer sums.
	var busy [numLayers]time.Duration
	var qtEval, optSelf, blResid time.Duration
	var evals, blEvals, deltas int
	var pulses, lookups, hits, beats, events int64
	for _, r := range tr.repeats {
		sh := r.shadow
		for l := range busy {
			busy[l] += sh.busy[l]
		}
		evals += sh.evals
		deltas += sh.deltaCount
		qtEval += r.qtEval.evalNs
		optSelf += r.qtRunOn - r.qtEval.wrapNs
		blResid += sh.blResidual
		blEvals += sh.blEvals
		pulses += sh.counters[cPulses]
		lookups += sh.counters[cSLTLookups]
		hits += sh.counters[cSLTHits] + sh.counters[cSLTQSpaceHits]
		beats += sh.counters[cBeats]
		events += sh.counters[cEvents]
	}
	perEval := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(evals) }
	var spans time.Duration
	for _, d := range busy {
		spans += d
	}

	m := map[string]metric{}
	for l, d := range busy {
		m[layerMetric[l]] = metric{perEval(d), "us"}
	}
	runs := float64(len(tr.repeats))
	m["opt.self_us"] = metric{perEval(optSelf), "us"}
	m["opt.evals"] = metric{float64(evals) / runs, "count"}
	m["compiler.deltas"] = metric{float64(deltas) / float64(evals), "count"}
	m["pipeline.pulses"] = metric{float64(pulses) / float64(evals), "count"}
	m["slt.hit_ratio"] = metric{float64(hits) / float64(lookups), "ratio"}
	m["tilelink.beats"] = metric{float64(beats) / float64(evals), "count"}
	m["sim.events"] = metric{float64(events) / float64(evals), "count"}
	m["system.unattributed_us"] = metric{perEval(qtEval - spans), "us"}
	m["baseline.unattributed_us"] = metric{float64(blResid.Nanoseconds()) / 1e3 / float64(blEvals), "us"}
	m["runtime.allocs_per_eval"] = metric{float64(allocs) / float64(allEvals), "count"}
	m["runtime.gc_cycles"] = metric{float64(gcs) / float64(len(plain.repeats)), "count"}
	untraced := float64(plainEval.Nanoseconds()) / float64(plainEvals)
	traced := float64(qtEval.Nanoseconds()) / float64(evals)
	m["trace.overhead_frac"] = metric{traced/untraced - 1, "ratio"}

	// Kernel bandwidth: the dense engine moves the SoA re/im arrays
	// (2 × 8 bytes per amplitude) in and out once per fused op.
	last := tr.repeats[len(tr.repeats)-1].shadow
	var fused, bytesPerNs, bwFrac, triad float64
	if last.method == route.Dense {
		fused = float64(last.fusedOps)
		bytesPerRun := fused * float64(uint64(1)<<b.wl.qubits) * 32
		bytesPerNs = bytesPerRun / (float64(busy[layerQsimRun].Nanoseconds()) / float64(evals))
		triad = triadBytesPerNs()
		bwFrac = bytesPerNs / triad
	}
	m["qsim.fused_ops"] = metric{fused, "count"}
	m["qsim.bytes_per_ns"] = metric{bytesPerNs, "B/ns"}
	m["qsim.bw_frac"] = metric{bwFrac, "ratio"}

	first := tr.repeats[0]
	simLayers(m, "qtenon", first.qt.Breakdown, first.qt.Evaluations)
	simLayers(m, "baseline", first.bl.Breakdown, first.bl.Evaluations)

	b.printLayers(m, busy, spans, qtEval, evals, triad, last.method)
	return result{Correct: true, Attempted: b.attempted, Failed: b.failed, Metrics: m}, nil
}

// simLayers adds one machine's simulated time per evaluation by
// Breakdown category.
func simLayers(m map[string]metric, machine string, bd report.Breakdown, evals int) {
	per := func(t int64) float64 { return float64(t) / 1e6 / float64(evals) } // ps → µs
	m[machine+".sim_quantum_us"] = metric{per(int64(bd.Quantum)), "sim_us"}
	m[machine+".sim_comm_us"] = metric{per(int64(bd.Comm)), "sim_us"}
	m[machine+".sim_pulse_us"] = metric{per(int64(bd.PulseGen)), "sim_us"}
	m[machine+".sim_host_us"] = metric{per(int64(bd.HostComp)), "sim_us"}
}

// attachShadow builds a shadow replay for a repeat's Qtenon machine:
// after each Qtenon evaluation the shadow replays the same parameters
// and must match the machine exactly; after each baseline evaluation the
// paired Qtenon evaluation's chip-layer time is subtracted to leave the
// baseline's own residual.
func attachShadow(m machines, qt, bl *timed) (*shadow, error) {
	sh, err := newShadow(qtenonConfig(m.in.machineSeed), m.w, m.qt.Metrics())
	if err != nil {
		return nil, err
	}
	var chip []time.Duration
	qt.after = func(params []float64, cost float64) error {
		v, err := sh.Evaluate(params)
		if err != nil {
			return fmt.Errorf("shadow: %w", err)
		}
		chip = append(chip, sh.lastChip)
		return sh.check(cost, v, m.qt.Result())
	}
	bl.after = func([]float64, float64) error {
		if sh.blEvals >= len(chip) {
			return fmt.Errorf("baseline evaluation %d has no paired Qtenon evaluation", sh.blEvals+1)
		}
		sh.blResidual += bl.last - chip[sh.blEvals]
		sh.blEvals++
		return nil
	}
	return sh, nil
}

// printLayers prints the per-layer table, the coverage identity and the
// checks of why each workload was chosen.
func (b *bench) printLayers(m map[string]metric, busy [numLayers]time.Duration, spans, qtEval time.Duration, evals int, triad float64, method route.Method) {
	perEval := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 / float64(evals) }
	fmt.Fprintf(b.out, "per-layer host time per Qtenon evaluation (shadow replay, %d evaluations, engine %s):\n", evals, method)
	for l, d := range busy {
		fmt.Fprintf(b.out, "  %-26s %12.3f us  %5.1f%%\n", layerMetric[l], perEval(d), 100*float64(d)/float64(qtEval))
	}
	fmt.Fprintf(b.out, "  coverage: layers %.3f us + system.unattributed_us %.3f us = measured Evaluate %.3f us\n",
		perEval(spans), m["system.unattributed_us"].Value, perEval(qtEval))
	for _, name := range []string{
		"opt.self_us", "opt.evals", "compiler.deltas", "pipeline.pulses", "slt.hit_ratio",
		"qsim.fused_ops", "qsim.bytes_per_ns", "qsim.bw_frac", "tilelink.beats", "sim.events",
		"baseline.unattributed_us", "runtime.allocs_per_eval", "runtime.gc_cycles", "trace.overhead_frac",
	} {
		fmt.Fprintf(b.out, "  %-26s %14.6g %s\n", name, m[name].Value, m[name].Unit)
	}
	if triad > 0 {
		fmt.Fprintf(b.out, "  stream triad reference     %14.6g B/ns (3 × %d MiB arrays)\n", triad, triadElems*8>>20)
	}
	fmt.Fprintln(b.out, "simulated time per evaluation (report.Breakdown), next to host time:")
	for _, mach := range []string{"qtenon", "baseline"} {
		fmt.Fprintf(b.out, "  %-8s quantum %.3f us  comm %.3f us  pulse %.3f us  host %.3f us\n", mach,
			m[mach+".sim_quantum_us"].Value, m[mach+".sim_comm_us"].Value,
			m[mach+".sim_pulse_us"].Value, m[mach+".sim_host_us"].Value)
	}
	largest := layer(0)
	for l := range busy {
		if busy[l] > busy[largest] {
			largest = layer(l)
		}
	}
	qsim := busy[layerQsimRun] + busy[layerQsimSample]
	switch b.wl.name {
	case "vqe16-gd":
		ok := true
		for l, d := range busy {
			if l != int(layerQsimRun) && l != int(layerQsimSample) && d > qsim {
				ok = false
			}
		}
		fmt.Fprintf(b.out, "why chosen: qsim.run_us + qsim.sample_us is the largest layer: %v\n", ok)
	case "qaoa64-spsa":
		fmt.Fprintf(b.out, "why chosen: pipeline.busy_us is the largest layer: %v (largest %s)\n", largest == layerPipeline, layerMetric[largest])
		fmt.Fprintf(b.out, "why chosen: slt.hit_ratio %.4f (miss path; qaoa64-gd runs the hit path)\n", m["slt.hit_ratio"].Value)
	case "qaoa64-gd":
		fmt.Fprintf(b.out, "why chosen: slt.hit_ratio %.4f (hit path; qaoa64-spsa runs the miss path)\n", m["slt.hit_ratio"].Value)
	}
}
