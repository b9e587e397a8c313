package backend_test

import (
	"fmt"
	"sync"
	"testing"

	"qtenon/internal/backend"
	"qtenon/internal/baseline"
	"qtenon/internal/host"
	"qtenon/internal/mapper"
	"qtenon/internal/metrics"
	"qtenon/internal/opt"
	"qtenon/internal/par"
	"qtenon/internal/quantum"
	"qtenon/internal/report"
	"qtenon/internal/route"
	"qtenon/internal/system"
	"qtenon/internal/vqa"
)

// replays is the counter of evaluations served from the workload's
// execution memo; it is the one registry entry allowed to differ
// between a run on a shared workload and the same run on a fresh one.
const replays = "quantum.replays"

// memoRun is one machine's finished run: its RunResult and final
// metrics snapshot.
type memoRun struct {
	res  report.RunResult
	snap metrics.Snapshot
}

func runMachine(t *testing.T, f backend.Factory, w *vqa.Workload, alg backend.Algorithm, o opt.Options) memoRun {
	t.Helper()
	r, err := tryRunMachine(f, w, alg, o)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func tryRunMachine(f backend.Factory, w *vqa.Workload, alg backend.Algorithm, o opt.Options) (memoRun, error) {
	b, err := f.New(w)
	if err != nil {
		return memoRun{}, err
	}
	res, err := backend.RunOn(b, w.InitialParams, alg, o)
	if err != nil {
		return memoRun{}, err
	}
	return memoRun{res, backend.MetricsOf(b).Snapshot()}, nil
}

// requireSameRun demands == on every RunResult field and every registry
// entry except the replay counter.
func requireSameRun(t *testing.T, got, want memoRun, label string) {
	t.Helper()
	requireSameRunResult(t, got.res, want.res, label)
	for name, v := range want.snap.Counters {
		if name != replays && got.snap.Counters[name] != v {
			t.Errorf("%s: counter %s = %d, want %d", label, name, got.snap.Counters[name], v)
		}
	}
	for name, v := range want.snap.Timers {
		if got.snap.Timers[name] != v {
			t.Errorf("%s: timer %s = %+v, want %+v", label, name, got.snap.Timers[name], v)
		}
	}
	for name, v := range want.snap.Gauges {
		if got.snap.Gauges[name] != v {
			t.Errorf("%s: gauge %s = %+v, want %+v", label, name, got.snap.Gauges[name], v)
		}
	}
	if len(got.snap.Counters) != len(want.snap.Counters) || len(got.snap.Timers) != len(want.snap.Timers) ||
		len(got.snap.Gauges) != len(want.snap.Gauges) {
		t.Errorf("%s: snapshot sizes differ", label)
	}
}

func memoOptions(iterations int) opt.Options {
	o := opt.DefaultOptions()
	o.Iterations = iterations
	return o
}

func qtenonFactory(m route.Method) backend.Factory {
	cfg := system.DefaultConfig(host.BoomL())
	cfg.Method = m
	return system.Factory{Cfg: cfg}
}

func baselineFactory(m route.Method) backend.Factory {
	cfg := baseline.DefaultConfig()
	cfg.Method = m
	return baseline.Factory{Cfg: cfg}
}

// TestSharedWorkloadMatchesFresh: on every engine the router can pick,
// and under both optimizers, Qtenon and then the baseline run on one
// workload. Each machine's run equals the same machine's run on a fresh
// workload, and the baseline served every one of its evaluations from
// the memo.
func TestSharedWorkloadMatchesFresh(t *testing.T) {
	cases := []struct {
		name   string
		method route.Method
		want   string
		build  func() (*vqa.Workload, error)
	}{
		{"dense VQE-12", route.Auto, "dense", func() (*vqa.Workload, error) { return vqa.New(vqa.VQE, 12) }},
		{"product QAOA-20", route.Product, "product", func() (*vqa.Workload, error) { return vqa.New(vqa.QAOA, 20) }},
		{"sharded QAOA-10", route.Sharded, "sharded", func() (*vqa.Workload, error) { return vqa.New(vqa.QAOA, 10) }},
		{"tableau Stabilizer-30", route.Auto, "clifford", func() (*vqa.Workload, error) { return vqa.NewStabilizer(30) }},
	}
	o := memoOptions(2)
	for _, c := range cases {
		for _, alg := range []backend.Algorithm{backend.GD, backend.SPSA} {
			label := fmt.Sprintf("%s/%v", c.name, alg)
			mk := func() *vqa.Workload {
				w, err := c.build()
				if err != nil {
					t.Fatal(err)
				}
				return w
			}
			shared := mk()
			qt := runMachine(t, qtenonFactory(c.method), shared, alg, o)
			bl := runMachine(t, baselineFactory(c.method), shared, alg, o)
			requireSameRun(t, qt, runMachine(t, qtenonFactory(c.method), mk(), alg, o), label+"/qtenon")
			requireSameRun(t, bl, runMachine(t, baselineFactory(c.method), mk(), alg, o), label+"/baseline")
			if bl.res.Method != c.want {
				t.Errorf("%s: ran on %q, want %q", label, bl.res.Method, c.want)
			}
			if got := qt.snap.Counters[replays]; got != 0 {
				t.Errorf("%s: first machine replayed %d evaluations", label, got)
			}
			if got, want := bl.snap.Counters[replays], int64(bl.res.Evaluations); got != want {
				t.Errorf("%s: baseline replayed %d of %d evaluations", label, got, want)
			}
		}
	}
}

// TestLongerConsumerRealigns: the baseline runs three GD iterations on a
// workload Qtenon ran for one. It replays Qtenon's evaluations, then
// re-executes them to realign its chip's random stream and simulates the
// rest, matching a fresh three-iteration run.
func TestLongerConsumerRealigns(t *testing.T) {
	shared, err := vqa.New(vqa.VQE, 8)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := vqa.New(vqa.VQE, 8)
	if err != nil {
		t.Fatal(err)
	}
	qt := runMachine(t, qtenonFactory(route.Auto), shared, backend.GD, memoOptions(1))
	bl := runMachine(t, baselineFactory(route.Auto), shared, backend.GD, memoOptions(3))
	requireSameRun(t, bl, runMachine(t, baselineFactory(route.Auto), fresh, backend.GD, memoOptions(3)), "baseline")
	if got, want := bl.snap.Counters[replays], int64(qt.res.Evaluations); got != want {
		t.Errorf("baseline replayed %d evaluations, want the %d Qtenon ran", got, want)
	}
}

// TestDivergingConsumer: Adam computes its first gradient from the same
// parameter-shift evaluations GD does, then steps elsewhere. A baseline
// under Adam on a workload Qtenon ran under GD replays the first
// iteration, branches the trie, and still matches a fresh Adam run; a
// third machine, under GD again, replays all of Qtenon's evaluations
// past the branch.
func TestDivergingConsumer(t *testing.T) {
	mk := func() *vqa.Workload {
		w, err := vqa.New(vqa.QAOA, 8)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	shared := mk()
	o := memoOptions(2)
	qt := runMachine(t, qtenonFactory(route.Auto), shared, backend.GD, o)
	adam := runMachine(t, baselineFactory(route.Auto), shared, backend.Adam, o)
	requireSameRun(t, adam, runMachine(t, baselineFactory(route.Auto), mk(), backend.Adam, o), "baseline/Adam")
	if got := adam.snap.Counters[replays]; got == 0 || got >= int64(adam.res.Evaluations) {
		t.Errorf("Adam baseline replayed %d of %d evaluations; want the shared first iteration only", got, adam.res.Evaluations)
	}
	gd := runMachine(t, baselineFactory(route.Auto), shared, backend.GD, o)
	requireSameRun(t, gd, runMachine(t, baselineFactory(route.Auto), mk(), backend.GD, o), "baseline/GD")
	if got, want := gd.snap.Counters[replays], int64(qt.res.Evaluations); got != want {
		t.Errorf("GD baseline replayed %d evaluations, want %d", got, want)
	}
}

// TestIncompatibleChipsNeverShare: a machine replays only executions of
// an ideal chip with its own seed. A noisy machine neither replays an
// ideal machine's executions nor publishes its own, and a chip with
// another seed starts from its own trie root.
func TestIncompatibleChipsNeverShare(t *testing.T) {
	noisyCfg := baseline.DefaultConfig()
	noisyCfg.Noise = quantum.TypicalNISQ()
	seed7Cfg := baseline.DefaultConfig()
	seed7Cfg.Seed = 7
	ideal := baselineFactory(route.Auto)
	noisy := baseline.Factory{Cfg: noisyCfg}
	seed7 := baseline.Factory{Cfg: seed7Cfg}
	cases := []struct {
		name            string
		first, consumer backend.Factory
	}{
		{"noisy after ideal", ideal, noisy},
		{"ideal after noisy", noisy, ideal},
		{"seed 7 after seed 1", ideal, seed7},
	}
	o := memoOptions(2)
	for _, c := range cases {
		mk := func() *vqa.Workload {
			w, err := vqa.New(vqa.QAOA, 8)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		shared := mk()
		runMachine(t, c.first, shared, backend.SPSA, o)
		got := runMachine(t, c.consumer, shared, backend.SPSA, o)
		requireSameRun(t, got, runMachine(t, c.consumer, mk(), backend.SPSA, o), c.name)
		if n := got.snap.Counters[replays]; n != 0 {
			t.Errorf("%s: replayed %d evaluations", c.name, n)
		}
	}
}

// TestRoutedCopySharesOnlyWithItself: a vqa.Routed copy starts with an
// empty memo of its own — the first machine on it replays nothing that
// ran on the logical workload — and machines on the copy share it.
func TestRoutedCopySharesOnlyWithItself(t *testing.T) {
	// The grid is as wide as the workload, so the copy's chips have the
	// same seed and width as the logical workload's.
	w, err := vqa.New(vqa.QAOA, 9)
	if err != nil {
		t.Fatal(err)
	}
	grid := mapper.Grid(3, 3)
	o := memoOptions(2)
	runMachine(t, qtenonFactory(route.Auto), w, backend.SPSA, o)
	routed, err := vqa.Routed(w, grid)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := vqa.Routed(w, grid)
	if err != nil {
		t.Fatal(err)
	}
	qt := runMachine(t, qtenonFactory(route.Auto), routed, backend.SPSA, o)
	if got := qt.snap.Counters[replays]; got != 0 {
		t.Errorf("first machine on the routed copy replayed %d evaluations", got)
	}
	bl := runMachine(t, baselineFactory(route.Auto), routed, backend.SPSA, o)
	requireSameRun(t, bl, runMachine(t, baselineFactory(route.Auto), fresh, backend.SPSA, o), "routed baseline")
	if got, want := bl.snap.Counters[replays], int64(bl.res.Evaluations); got != want {
		t.Errorf("routed baseline replayed %d of %d evaluations", got, want)
	}
}

// TestMemoStopsAtBudget: with shots large enough that the memo fills
// part-way through the first run, the second machine replays what was
// recorded, then simulates the rest, and still matches a fresh run.
func TestMemoStopsAtBudget(t *testing.T) {
	mk := func() *vqa.Workload {
		w, err := vqa.New(vqa.QNN, 4)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	o := memoOptions(1)
	evals := opt.GDEvaluationsPerRun(len(mk().InitialParams), o.Iterations)
	// Each recorded evaluation costs at least 8 bytes per shot, so about
	// half the run fits.
	cfg := baseline.DefaultConfig()
	cfg.Shots = 2 * vqa.MemoBudget / (8 * evals)
	f := baseline.Factory{Cfg: cfg}

	shared := mk()
	first := runMachine(t, f, shared, backend.GD, o)
	second := runMachine(t, f, shared, backend.GD, o)
	requireSameRun(t, second, first, "second vs first")
	requireSameRun(t, second, runMachine(t, f, mk(), backend.GD, o), "second vs fresh")
	if got := second.snap.Counters[replays]; got == 0 || got >= int64(evals) {
		t.Errorf("second machine replayed %d of %d evaluations; want a recorded prefix", got, evals)
	}
}

// TestConcurrentMachinesOnOneWorkload evaluates Qtenon and the baseline
// on one workload from two goroutines: whichever reaches an execution
// first simulates it, and both runs equal serial runs on fresh
// workloads. CI runs it under -race at GOMAXPROCS=4.
func TestConcurrentMachinesOnOneWorkload(t *testing.T) {
	mk := func() *vqa.Workload {
		w, err := vqa.New(vqa.VQE, 10)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	o := memoOptions(2)
	machines := []backend.Factory{qtenonFactory(route.Auto), baselineFactory(route.Auto)}
	serial := make([]memoRun, len(machines))
	for i, f := range machines {
		serial[i] = runMachine(t, f, mk(), backend.GD, o)
	}
	// Which machine replays which evaluation depends on the goroutines'
	// interleaving, so reuse is asserted over all rounds together.
	var replayed int64
	for round := 0; round < 3; round++ {
		shared := mk()
		got := make([]memoRun, len(machines))
		errs := make([]error, len(machines))
		var wg sync.WaitGroup
		for i, f := range machines {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], errs[i] = tryRunMachine(f, shared, backend.GD, o)
			}()
		}
		wg.Wait()
		for i := range machines {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			requireSameRun(t, got[i], serial[i], fmt.Sprintf("round %d machine %d", round, i))
			replayed += got[i].snap.Counters[replays]
		}
	}
	if replayed == 0 {
		t.Error("no machine replayed an evaluation in any round")
	}
}

// TestFreshRunsIndependentOfWorkers is TestRunResultIndependentOfWorkers
// with a fresh workload per run. That test runs every worker count on
// one workload, so since the execution memo only its first run of each
// machine simulates and the rest replay; here every run simulates at
// its own worker count, and must still equal the one-worker run.
func TestFreshRunsIndependentOfWorkers(t *testing.T) {
	defer par.SetWorkers(0)
	o := memoOptions(2)
	for _, m := range []route.Method{route.Auto, route.Sharded} {
		machines := []struct {
			name string
			f    backend.Factory
			alg  backend.Algorithm
		}{
			{"qtenon", qtenonFactory(m), backend.GD},
			{"baseline", baselineFactory(m), backend.SPSA},
		}
		for _, mc := range machines {
			var ref memoRun
			for _, workers := range []int{1, 2, 4, 8} {
				par.SetWorkers(workers)
				w, err := vqa.New(vqa.QAOA, 14)
				if err != nil {
					t.Fatal(err)
				}
				got := runMachine(t, mc.f, w, mc.alg, o)
				if n := got.snap.Counters[replays]; n != 0 {
					t.Fatalf("%s/%v at %d workers replayed %d evaluations", mc.name, m, workers, n)
				}
				if workers == 1 {
					ref = got
					continue
				}
				requireSameRun(t, got, ref, fmt.Sprintf("%s/%v/%d workers vs 1", mc.name, m, workers))
			}
		}
	}
}
