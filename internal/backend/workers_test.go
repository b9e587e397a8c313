package backend_test

import (
	"fmt"
	"testing"

	"qtenon/internal/backend"
	"qtenon/internal/baseline"
	"qtenon/internal/host"
	"qtenon/internal/par"
	"qtenon/internal/report"
	"qtenon/internal/route"
	"qtenon/internal/system"
	"qtenon/internal/vqa"
)

// TestRunResultIndependentOfWorkers is the end-to-end determinism gate
// for the parallel engine: a whole optimization run — timing down to the
// picosecond, cost history down to the last bit — must not depend on how
// many pool workers the statevector kernels fan out over. At 14 qubits
// the register reaches par.SerialThreshold, so the kernels, reductions
// and sampler really dispatch onto the pool at every width above 1. One
// case pins the sharded engine, whose chunk kernels and sampler build
// fan out through par.Do as well.
func TestRunResultIndependentOfWorkers(t *testing.T) {
	defer par.SetWorkers(0)
	const nq = 14
	w, err := vqa.New(vqa.QAOA, nq)
	if err != nil {
		t.Fatal(err)
	}
	o := goldenOptions()
	o.Iterations = 2
	for _, m := range []route.Method{route.Auto, route.Sharded} {
		sysCfg := system.DefaultConfig(host.BoomL())
		sysCfg.Method = m
		baseCfg := baseline.DefaultConfig()
		baseCfg.Method = m
		machines := []struct {
			name string
			f    backend.Factory
			alg  backend.Algorithm
		}{
			{"qtenon", system.Factory{Cfg: sysCfg}, backend.GD},
			{"baseline", baseline.Factory{Cfg: baseCfg}, backend.SPSA},
		}
		for _, mc := range machines {
			var ref report.RunResult
			for _, workers := range []int{1, 2, 4, 8} {
				par.SetWorkers(workers)
				res, err := backend.Run(mc.f, w, mc.alg, o)
				if err != nil {
					t.Fatalf("%s/%v at %d workers: %v", mc.name, m, workers, err)
				}
				if workers == 1 {
					ref = res
					wantMethod := "dense"
					if m == route.Sharded {
						wantMethod = "sharded"
					}
					if res.Method != wantMethod {
						t.Fatalf("%s/%v ran on %q, want %q", mc.name, m, res.Method, wantMethod)
					}
					continue
				}
				requireSameRunResult(t, ref, res, fmt.Sprintf("%s/%v/%d workers vs 1", mc.name, m, workers))
			}
		}
	}
}
