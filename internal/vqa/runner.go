package vqa

import (
	"math"
	"slices"
	"sync"

	"qtenon/internal/circuit"
	"qtenon/internal/quantum"
	"qtenon/internal/route"
)

// MemoBudget caps the bytes one workload's execution memo records
// (outcomes, parameter vectors and a fixed per-node overhead). Past it
// the memo stops growing: every machine that reaches an unrecorded
// execution simulates it, exactly as without the memo. At 500 shots it
// holds ~7k evaluations of a 48-parameter VQE; the largest paper sweep
// point (64-qubit VQE, 192 parameters, 10 GD iterations: 3,850
// evaluations) needs ~21 MiB.
const MemoBudget = 32 << 20

// memoNodeBytes is the fixed per-node charge against MemoBudget: the
// node struct, its slice headers and its parent's child pointer.
const memoNodeBytes = 128

// memo records a workload's ideal chip executions as one history trie
// per (chip seed, chip width, forced method) root. A chip's math/rand
// stream position is a function of its seed and the executions it has
// run, and each execution's outcomes are a function of the bound
// circuit, the shot count, the routed method and that position. Two
// chips with the same root that ran the same sequence of executions
// therefore draw the same outcomes next, so the edge (bit-exact
// parameters, shots) below a node fixes the outcomes stored in its
// child. The workload's circuit is fixed, so the parameters fix the
// bound circuit, and with the chip width and the forced method the
// bound circuit fixes the routed method: a replay need not route.
type memo struct {
	mu    sync.Mutex
	roots map[memoRoot]*memoNode
	bytes int
}

type memoRoot struct {
	seed   int64
	width  int
	method route.Method
}

// memoNode is one recorded execution: the edge that leads to it from its
// parent and the Execution (outcomes, shot time, routed method) it
// returned. Nodes
// are immutable once published except for children, which only the memo
// touches under its lock.
type memoNode struct {
	params []float64
	shots  int
	ex     quantum.Execution

	children []*memoNode
}

func (m *memo) root(k memoRoot) *memoNode {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.roots[k]
	if n == nil {
		if m.roots == nil {
			m.roots = make(map[memoRoot]*memoNode)
		}
		n = &memoNode{}
		m.roots[k] = n
	}
	return n
}

// child returns at's child on the edge (params, shots), or nil.
func (m *memo) child(at *memoNode, params []float64, shots int) *memoNode {
	m.mu.Lock()
	defer m.mu.Unlock()
	return at.child(params, shots)
}

func (n *memoNode) child(params []float64, shots int) *memoNode {
	for _, c := range n.children {
		if c.shots == shots && sameBits(c.params, params) {
			return c
		}
	}
	return nil
}

// add publishes ex as at's child on the edge (params, shots) and
// returns the child. When another chip published the same edge
// first, that node is returned (its outcomes are the same). It returns
// nil, recording nothing, when the node would exceed MemoBudget.
func (m *memo) add(at *memoNode, params []float64, shots int, ex quantum.Execution) *memoNode {
	m.mu.Lock()
	defer m.mu.Unlock()
	if c := at.child(params, shots); c != nil {
		return c
	}
	size := memoNodeBytes + 8*(len(params)+len(ex.Outcomes))
	if m.bytes+size > MemoBudget {
		return nil
	}
	m.bytes += size
	ex.Outcomes = slices.Clone(ex.Outcomes)
	c := &memoNode{params: slices.Clone(params), shots: shots, ex: ex}
	at.children = append(at.children, c)
	return c
}

// sameBits reports whether a and b hold bit-identical values.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// Runner is one machine's quantum chip bound to a workload: it binds
// each parameter vector and executes it on the chip. Runners of the same
// workload whose ideal chips share a seed, width and forced method share
// the workload's execution memo, so only the first machine to reach an
// execution simulates it; the others copy its outcomes. Every Runner
// returns the same executions it would return without the memo.
//
// A Runner that served executions from the memo has a chip whose random
// stream lags behind them. When it then reaches an execution nobody
// recorded, it first re-executes the skipped ones (outcomes discarded)
// so its stream is where it would have been, and then simulates. It
// never simulates more than it would without the memo.
type Runner struct {
	w    *Workload
	exec quantum.Executor
	// at is the node of the chip's history so far; nil once the history
	// left the memo (budget) or when the chip cannot share.
	at *memoNode
	// skipped are the nodes served from the memo since the chip last
	// simulated, oldest first.
	skipped []*memoNode

	// bound is the bound-circuit scratch handed to the chip, which
	// consumes it synchronously.
	bound *circuit.Circuit
}

// NewRunner builds the chip a machine executes w on: an ideal chip, or
// a noisy one when noise is enabled, over w's register with the given
// seed, pinned to method unless it is route.Auto.
func NewRunner(w *Workload, seed int64, noise quantum.Noise, method route.Method) (*Runner, error) {
	r := &Runner{w: w}
	if noise.Enabled() {
		chip, err := quantum.NewNoisyChip(w.NQubits(), seed, noise)
		if err != nil {
			return nil, err
		}
		chip.ForceMethod(method)
		r.exec = chip
		return r, nil
	}
	chip, err := quantum.NewChip(w.NQubits(), seed)
	if err != nil {
		return nil, err
	}
	chip.ForceMethod(method)
	r.exec = chip
	if w.memo != nil {
		r.at = w.memo.root(memoRoot{seed, chip.NQubits(), method})
	}
	return r, nil
}

// Execute binds params into the workload's circuit and runs shots of it.
// replayed reports that the outcomes came from the memo rather than a
// simulation. Outcomes are freshly allocated either way.
func (r *Runner) Execute(params []float64, shots int) (ex quantum.Execution, replayed bool, err error) {
	if r.at != nil {
		if n := r.w.memo.child(r.at, params, shots); n != nil {
			r.at = n
			r.skipped = append(r.skipped, n)
			ex = n.ex
			ex.Outcomes = slices.Clone(ex.Outcomes)
			return ex, true, nil
		}
		for _, n := range r.skipped {
			r.bound = r.w.Circuit.BindInto(r.bound, n.params)
			if _, err := r.exec.Execute(r.bound, n.shots); err != nil {
				return quantum.Execution{}, false, err
			}
		}
		r.skipped = r.skipped[:0]
	}
	r.bound = r.w.Circuit.BindInto(r.bound, params)
	if ex, err = r.exec.Execute(r.bound, shots); err != nil {
		return quantum.Execution{}, false, err
	}
	if r.at != nil {
		r.at = r.w.memo.add(r.at, params, shots, ex)
	}
	return ex, false, nil
}
