package route_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"qtenon/internal/backend"
	"qtenon/internal/circuit"
	"qtenon/internal/host"
	"qtenon/internal/metrics"
	"qtenon/internal/opt"
	"qtenon/internal/qsim/shard"
	"qtenon/internal/report"
	"qtenon/internal/route"
	"qtenon/internal/system"
	"qtenon/internal/vqa"
)

// selectionInputs covers every routing branch: dense, sharded and
// product widths of a generic ansatz, a wide Clifford circuit, and a
// mid-circuit measurement.
func selectionInputs(t *testing.T) []*circuit.Circuit {
	t.Helper()
	var out []*circuit.Circuit
	for _, n := range []int{8, 20, 64} {
		w, err := vqa.New(vqa.QAOA, n)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, w.Circuit.Bind(w.InitialParams))
	}
	s, err := vqa.New(vqa.Stabilizer, 26)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, s.Circuit)
	mid := circuit.NewBuilder(4).RY(0, 0.3).Measure(0).CX(0, 1).RY(1, 0.2).MeasureAll().MustBuild()
	return append(out, mid)
}

// selection is one Select/SelectWidth outcome, comparable with ==.
type selection struct {
	m   route.Method
	a   route.Analysis
	err string
}

func selected(m route.Method, a route.Analysis, err error) selection {
	s := selection{m: m, a: a}
	if err != nil {
		s.err = err.Error()
	}
	return s
}

// considerEverything is what merely deciding how to simulate does:
// analyze and select every input under the stock, a narrowed and a
// forced router, and construct every engine.
func considerEverything(t *testing.T, cs []*circuit.Circuit) {
	t.Helper()
	routers := []route.Router{route.Default(), {DenseLimit: 10}, {Force: route.Sharded}}
	for _, c := range cs {
		route.Analyze(c)
		for _, r := range routers {
			r.Select(c)
			r.SelectWidth(c, c.NQubits+2)
		}
	}
	// NewSimulator is the one caller of every engine.New* constructor.
	for _, n := range []int{4, 8} {
		for m := route.Dense; m < route.NumMethods; m++ {
			if _, err := route.NewSimulator(m, n); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// seededRun is the golden-scale run: 8-qubit QAOA on a fresh Qtenon
// machine, whose chip routes every circuit it executes.
func seededRun(t *testing.T) (report.RunResult, metrics.Snapshot) {
	t.Helper()
	w, err := vqa.New(vqa.QAOA, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := system.Factory{Cfg: system.DefaultConfig(host.BoomL())}.New(w)
	if err != nil {
		t.Fatal(err)
	}
	o := opt.DefaultOptions()
	o.Iterations = 3
	res, err := backend.RunOn(b, w.InitialParams, backend.SPSA, o)
	if err != nil {
		t.Fatal(err)
	}
	return res, backend.MetricsOf(b).Snapshot()
}

// TestSelectionLeavesRunsUnperturbed: method selection and engine
// construction run before — and sometimes instead of — a simulation. If
// either consumed an RNG stream, read the clock into state, bumped a
// shared counter or cached anything in package-level state, merely
// considering an engine would shift seeded results. Extra rounds of
// selection and construction before a seeded run must leave its
// RunResult and metrics snapshot bit-identical.
func TestSelectionLeavesRunsUnperturbed(t *testing.T) {
	cs := selectionInputs(t)
	ref, refSnap := seededRun(t)
	for round := 0; round < 3; round++ {
		considerEverything(t, cs)
		got, snap := seededRun(t)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("round %d: RunResult changed after extra selection:\n got %+v\nwant %+v", round, got, ref)
		}
		if !reflect.DeepEqual(snap, refSnap) {
			t.Fatalf("round %d: metrics snapshot changed after extra selection:\n got %+v\nwant %+v", round, snap, refSnap)
		}
	}
}

// TestSelectRepeatable: Select is a function of its input alone. Every
// call must return its expected method, and repeating it, interleaving
// it with selections of other circuits, or running it from several
// goroutines at once must return the same method, analysis and error
// every time. The concurrent phase makes an unsynchronized write to
// package-level state a -race failure (and a map write a crash) even
// when it never changes a result.
func TestSelectRepeatable(t *testing.T) {
	type call struct {
		name string
		want route.Method
		do   func() selection
	}
	cs := selectionInputs(t) // QAOA 8, 20, 64; Clifford 26; mid-measure 4
	narrow := route.Router{DenseLimit: 10}
	var calls []call
	for ri, r := range []route.Router{route.Default(), narrow} {
		// Expected methods at the circuit's own width and `wider` qubits
		// wider: 4 for the stock router, and for the narrow one enough to
		// put the 20-qubit circuit one past the sharded engine's window.
		wider := 4
		if ri == 1 {
			wider = shard.MaxQubits + 1 - cs[1].NQubits
		}
		wants := [][2]route.Method{
			{route.Dense, route.Dense},
			{route.Sharded, route.Sharded},
			{route.Product, route.Product},
			{route.Clifford, route.Clifford},
			{route.Dense, route.Dense},
		}
		if ri == 1 {
			wants[0][1] = route.Sharded // 8+wider qubits > DenseLimit 10
			wants[1][1] = route.Product // shard.MaxQubits+1 qubits
		}
		for ci, c := range cs {
			calls = append(calls,
				call{fmt.Sprintf("router %d Select(circuit %d)", ri, ci), wants[ci][0], func() selection { return selected(r.Select(c)) }},
				call{fmt.Sprintf("router %d SelectWidth(circuit %d, +%d)", ri, ci, wider), wants[ci][1], func() selection { return selected(r.SelectWidth(c, c.NQubits+wider)) }})
		}
	}
	first := make([]selection, len(calls))
	for i, c := range calls {
		first[i] = c.do()
		if first[i].m != c.want || first[i].err != "" {
			t.Fatalf("%s: %+v, want method %v", c.name, first[i], c.want)
		}
	}
	// Each pass visits the calls in a different order (the strides are
	// coprime to len(calls)), so every call follows different
	// predecessors than it did the first time.
	replay := func(stride int) {
		for k := range calls {
			i := k * stride % len(calls)
			if got := calls[i].do(); got != first[i] {
				t.Errorf("stride %d, %s: %+v, first call gave %+v", stride, calls[i].name, got, first[i])
				return
			}
		}
	}
	strides := []int{len(calls) - 1, 3, 7}
	for _, stride := range strides {
		replay(stride)
	}
	var wg sync.WaitGroup
	for _, stride := range strides {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replay(stride)
		}()
	}
	wg.Wait()
}
