package pipeline_test

import (
	"testing"

	"qtenon/internal/compiler"
	"qtenon/internal/pipeline"
	"qtenon/internal/qcc"
	"qtenon/internal/slt"
	"qtenon/internal/vqa"
)

// runAllocCeiling bounds the allocations of one warmed miss-path Run over
// the 64-qubit QAOA program (about 640 pulses). Pulses are rendered into
// the PGU's buffer and copied straight into the cache, so what remains is
// the SLT's owner and QSpace maps growing while the per-qubit pulse
// stores fill: about 90 per Run on this program, falling as the stores
// wrap. One allocation per pulse would add over 600, so the ceiling
// trips on any per-pulse allocation (the per-pulse waveform and entry
// slice used to cost about 1160 per Run).
const runAllocCeiling = 300

// BenchmarkPipelineRunAllocRegression fails when a warmed pipeline Run
// over a full parameter rewrite (the SPSA miss path: every parameterized
// gate misses the SLT and synthesizes a pulse) starts allocating per
// pulse. CI runs it via `-bench='Alloc|Latency' -benchtime=1x`.
func BenchmarkPipelineRunAllocRegression(b *testing.B) {
	w, err := vqa.New(vqa.QAOA, 64)
	if err != nil {
		b.Fatal(err)
	}
	cfg := qcc.DefaultConfig(w.NQubits())
	prog, err := compiler.Compile(w.Circuit, cfg)
	if err != nil {
		b.Fatal(err)
	}
	cache, err := qcc.NewCache(cfg)
	if err != nil {
		b.Fatal(err)
	}
	pipe, err := pipeline.New(pipeline.DefaultConfig(), cache, slt.NewBank(w.NQubits(), cfg.PulseEntries))
	if err != nil {
		b.Fatal(err)
	}
	params := append([]float64(nil), w.InitialParams...)
	run := func() {
		for i := range params {
			params[i] += 0.01 * float64(i+1)
		}
		if err := prog.Load(cache, params); err != nil {
			b.Fatal(err)
		}
		res, err := pipe.Run(prog.Items)
		if err != nil {
			b.Fatal(err)
		}
		if res.Generated == 0 {
			b.Fatal("parameter rewrite generated no pulses: not the miss path")
		}
	}
	run() // warm the PGU shapes and scratch, the SLT and the QSpace maps
	run()
	for i := 0; i < b.N; i++ {
		if avg := testing.AllocsPerRun(5, run); avg > runAllocCeiling {
			b.Fatalf("warmed miss-path Run allocates %.0f times, ceiling %d: a per-pulse allocation is back",
				avg, runAllocCeiling)
		}
	}
}
