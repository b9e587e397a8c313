package backend_test

import (
	"testing"

	"qtenon/internal/backend"
	"qtenon/internal/baseline"
	"qtenon/internal/host"
	"qtenon/internal/report"
	"qtenon/internal/route"
	"qtenon/internal/system"
	"qtenon/internal/vqa"
)

func requireSameRunResult(t *testing.T, a, b report.RunResult, label string) {
	t.Helper()
	if a.Breakdown != b.Breakdown {
		t.Errorf("%s: breakdown %+v vs %+v", label, a.Breakdown, b.Breakdown)
	}
	if a.Comm != b.Comm {
		t.Errorf("%s: comm %+v vs %+v", label, a.Comm, b.Comm)
	}
	if a.Evaluations != b.Evaluations || a.InstructionCount != b.InstructionCount {
		t.Errorf("%s: counts (%d,%d) vs (%d,%d)", label,
			a.Evaluations, a.InstructionCount, b.Evaluations, b.InstructionCount)
	}
	if a.HostActivity != b.HostActivity || a.CommActivity != b.CommActivity {
		t.Errorf("%s: activity (%d,%d) vs (%d,%d)", label,
			a.HostActivity, a.CommActivity, b.HostActivity, b.CommActivity)
	}
	if a.PulsesGenerated != b.PulsesGenerated || a.SLTHitRate != b.SLTHitRate {
		t.Errorf("%s: pulses/slt (%d,%.17g) vs (%d,%.17g)", label,
			a.PulsesGenerated, a.SLTHitRate, b.PulsesGenerated, b.SLTHitRate)
	}
	if a.Method != b.Method {
		t.Errorf("%s: method %q vs %q", label, a.Method, b.Method)
	}
	if len(a.History) != len(b.History) {
		t.Fatalf("%s: history lengths %d vs %d", label, len(a.History), len(b.History))
	}
	for i := range a.History {
		if a.History[i] != b.History[i] {
			t.Errorf("%s: history[%d] %.17g vs %.17g", label, i, a.History[i], b.History[i])
		}
	}
}

// TestAutoMatchesForcedDense is the routing acceptance gate: on the
// golden-scale workloads (≤20 qubits, generic gates) the auto router
// must pick the dense engine and the entire RunResult — timing to the
// picosecond, cost history to the last bit — must equal a run with the
// method pinned to dense. Auto is allowed to change *which* engine runs
// wide Clifford work, never *what* the dense-window workloads compute.
func TestAutoMatchesForcedDense(t *testing.T) {
	o := goldenOptions()
	for _, kind := range []vqa.Kind{vqa.QAOA, vqa.VQE, vqa.QNN} {
		for _, n := range []int{6, 8} {
			w, err := vqa.New(kind, n)
			if err != nil {
				t.Fatal(err)
			}
			label := w.Name

			autoCfg := system.DefaultConfig(host.BoomL())
			denseCfg := system.DefaultConfig(host.BoomL())
			denseCfg.Method = route.Dense
			auto, err := backend.Run(system.Factory{Cfg: autoCfg}, w, backend.GD, o)
			if err != nil {
				t.Fatalf("%s auto: %v", label, err)
			}
			dense, err := backend.Run(system.Factory{Cfg: denseCfg}, w, backend.GD, o)
			if err != nil {
				t.Fatalf("%s dense: %v", label, err)
			}
			if auto.Method != "dense" || dense.Method != "dense" {
				t.Fatalf("%s: methods %q/%q, want dense/dense", label, auto.Method, dense.Method)
			}
			requireSameRunResult(t, auto, dense, "system/"+label)

			bAutoCfg := baseline.DefaultConfig()
			bDenseCfg := baseline.DefaultConfig()
			bDenseCfg.Method = route.Dense
			bAuto, err := backend.Run(baseline.Factory{Cfg: bAutoCfg}, w, backend.SPSA, o)
			if err != nil {
				t.Fatalf("%s baseline auto: %v", label, err)
			}
			bDense, err := backend.Run(baseline.Factory{Cfg: bDenseCfg}, w, backend.SPSA, o)
			if err != nil {
				t.Fatalf("%s baseline dense: %v", label, err)
			}
			requireSameRunResult(t, bAuto, bDense, "baseline/"+label)
		}
	}
}

// TestWideCliffordRunCompletes is the scaling acceptance gate: a
// 26-qubit Clifford-only VQA run — impossible on the 24-qubit dense
// window — completes end to end through the full system model via the
// stabilizer tableau, and the report names the engine that ran it.
func TestWideCliffordRunCompletes(t *testing.T) {
	w, err := vqa.New(vqa.Stabilizer, 26)
	if err != nil {
		t.Fatal(err)
	}
	if w.Circuit.NumParams != 0 {
		t.Fatalf("stabilizer workload has %d params, want 0", w.Circuit.NumParams)
	}
	res, err := backend.Run(system.Factory{Cfg: system.DefaultConfig(host.BoomL())}, w, backend.GD, goldenOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "clifford" {
		t.Fatalf("26q Clifford run reported method %q, want clifford", res.Method)
	}
	if res.Evaluations != goldenOptions().Iterations {
		t.Fatalf("evaluations = %d, want %d (0-param GD: one per iteration)", res.Evaluations, goldenOptions().Iterations)
	}
	if len(res.History) != goldenOptions().Iterations {
		t.Fatalf("history length = %d", len(res.History))
	}
	// With no parameters every iteration re-samples the same state; the
	// shot estimates must all hover around the exact stabilizer cost
	// (the RNG stream advances between evaluations, so they need not be
	// bit-identical).
	exact, err := w.ExactCost(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.History {
		if diff := v - exact; diff > 2 || diff < -2 {
			t.Fatalf("history[%d] = %g, exact cost %g — outside shot noise", i, v, exact)
		}
	}
	// Forcing dense on the same workload must fail loudly, not silently
	// truncate: 26 qubits exceed the dense window.
	cfg := system.DefaultConfig(host.BoomL())
	cfg.Method = route.Dense
	if _, err := backend.Run(system.Factory{Cfg: cfg}, w, backend.GD, goldenOptions()); err == nil {
		t.Fatal("forced dense on 26 qubits did not error")
	}
}
