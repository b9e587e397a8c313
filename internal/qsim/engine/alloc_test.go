package engine

import (
	"math"
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/opt"
	"qtenon/internal/par"
	"qtenon/internal/qsim/shard"
)

// allocWidth is wide enough that every kernel takes its general
// (multi-block) path, and small enough that par never splits a loop.
const allocWidth = 12

// allocShardBits leaves qubits 0..7 shard-local and 8..11 global.
const allocShardBits = 8

// everyKindCircuit applies every gate kind on a shard-local qubit and on
// a global one, plus two-qubit gates across local/local, local/global and
// global/global pairs, so one Run or Apply sweep reaches every kernel.
func everyKindCircuit() *circuit.Circuit {
	b := circuit.NewBuilder(allocWidth)
	for _, q := range []int{0, 3, 9} {
		b.Gate(circuit.Gate{Kind: circuit.I, Qubit: q, Param: circuit.NoParam})
		b.H(q).X(q).Y(q).Z(q).S(q).T(q)
		b.RX(q, 0.3).RY(q, 0.7).RZ(q, 1.1)
	}
	for _, pr := range [][2]int{{0, 1}, {2, 10}, {9, 11}} {
		b.CX(pr[0], pr[1]).CZ(pr[0], pr[1]).RZZ(pr[0], pr[1], 0.9)
	}
	return b.Measure(0).Measure(9).MustBuild()
}

// TestSteadyStateAllocations pins the heap allocations per call of the
// statevector and optimizer hot paths on warmed engines at
// par.SetWorkers(1). Each ceiling is the exact count the code makes
// today, so a new per-call make or a growing append anywhere under these
// entry points fails here; an entry that gets cheaper should lower its
// ceiling. The statevector ceilings are not 0 because every par.For and
// par.SumFloat64 loop takes a closure over its caller's locals, and
// handing it to par makes it escape: one heap closure per loop, whether
// or not the loop is split.
func TestSteadyStateAllocations(t *testing.T) {
	defer par.SetWorkers(0)
	par.SetWorkers(1)

	c := everyKindCircuit()
	dense, err := NewDense(allocWidth)
	if err != nil {
		t.Fatal(err)
	}
	st, err := shard.NewWithShardBits(allocWidth, allocShardBits)
	if err != nil {
		t.Fatal(err)
	}
	sharded := &Sharded{st: st}
	product, err := NewProduct(allocWidth)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Simulator{dense, sharded, product} {
		if err := s.Run(c); err != nil {
			t.Fatal(err)
		}
	}
	applyAll := func(s Simulator) func() {
		return func() {
			for _, g := range c.Gates {
				s.Apply(g)
			}
		}
	}
	run := func(s Simulator) func() {
		return func() {
			if err := s.Run(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	var sink float64
	eval := func(sets [][]float64, out []float64) error {
		for k, p := range sets {
			var v float64
			for _, x := range p {
				v += math.Cos(x)
			}
			out[k] = v
		}
		return nil
	}
	initial := []float64{0.1, 0.2, 0.3, 0.4}
	gdStep := opt.Options{Iterations: 1, LearningRate: 0.1, ShiftScale: math.Pi / 2}

	cases := []struct {
		name string
		f    func()
		max  float64
	}{
		// Dense Run: the closures of the fused sweep's par loops.
		{"dense/Run", run(dense), 6},
		// Dense Apply: one kernel closure per one- and two-qubit gate
		// (the 2×2 matrix is passed by value and stays on the stack);
		// none for I and Measure.
		{"dense/Apply", applyAll(dense), 36},
		// Dense ZExpectation, ExpectationZZ, Norm: one par.SumFloat64
		// closure each.
		{"dense/ZExpectation", func() { sink += dense.ZExpectation(3) }, 1},
		{"dense/ExpectationZZ", func() { sink += dense.State().ExpectationZZ(0, 9) }, 1},
		{"dense/Norm", func() { sink += dense.State().Norm() }, 1},
		// Sharded Run: the closures of the local-group and global-op par
		// loops.
		{"sharded/Run", run(sharded), 10},
		// Sharded Apply: the same loops, one gate at a time.
		{"sharded/Apply", applyAll(sharded), 44},
		// Sharded ZExpectation: the per-shard reduction closure, for a
		// local and a global qubit.
		{"sharded/ZExpectation/local", func() { sink += sharded.ZExpectation(3) }, 1},
		{"sharded/ZExpectation/global", func() { sink += sharded.ZExpectation(9) }, 1},
		// Product: per-qubit amplitudes updated in place, no par loop.
		{"product/Run", run(product), 0},
		{"product/Apply", applyAll(product), 0},
		{"product/ZExpectation", func() { sink += product.ZExpectation(3) }, 0},
		// One GD step: the parameter copy, the gradient, the batch
		// scratch (set table, flat backing, values, single-point set,
		// its table and value) and the one-entry History are allocated
		// once per call; the iteration loop reuses them.
		{"opt/GradientDescentBatch", func() {
			res, err := opt.GradientDescentBatch(eval, initial, gdStep)
			if err != nil {
				t.Fatal(err)
			}
			sink += res.History[0]
		}, 9},
	}
	for _, tc := range cases {
		got := testing.AllocsPerRun(20, tc.f)
		t.Logf("%s: %v allocs/call", tc.name, got)
		if got > tc.max {
			t.Errorf("%s: %v allocs/call, ceiling %v", tc.name, got, tc.max)
		}
	}
	_ = sink
}
