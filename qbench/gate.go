package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"

	"qtenon/internal/backend"
	"qtenon/internal/quantum"
	"qtenon/internal/report"
	"qtenon/internal/vqa"
)

// The benchmark's default workload seed, and the held-out seed a
// performance claim made on the default must also hold on.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

// record is the recorded outcome of one workload run at one seed.
type record struct {
	Evaluations int       `json:"evaluations"`
	QtenonSimPs int64     `json:"qtenon_sim_ps"`
	BaseSimPs   int64     `json:"baseline_sim_ps"`
	History     []float64 `json:"history"`
}

// recordFile maps workload → seed → record.
type recordFile struct {
	DefaultSeed int                          `json:"default_seed"`
	HeldOutSeed int                          `json:"held_out_seed"`
	Workloads   map[string]map[string]record `json:"workloads"`
}

//go:embed records.json
var recordsJSON []byte

func loadRecords() (recordFile, error) {
	var f recordFile
	if err := json.Unmarshal(recordsJSON, &f); err != nil {
		return f, fmt.Errorf("records.json: %w", err)
	}
	return f, nil
}

func (f recordFile) lookup(wl string, seed int64) (record, bool) {
	r, ok := f.Workloads[wl][strconv.FormatInt(seed, 10)]
	return r, ok
}

// referenceHistory runs the workload's optimizer over a bare chip — the
// functional path both machines wrap — and returns its cost history and
// evaluation count. Both machines must reproduce it bit for bit.
func referenceHistory(wl workload, seed int64) ([]float64, int, error) {
	w, err := vqa.New(wl.kind, wl.qubits)
	if err != nil {
		return nil, 0, err
	}
	in := deriveInputs(w, seed)
	chip, err := quantum.NewChip(w.NQubits(), in.machineSeed)
	if err != nil {
		return nil, 0, err
	}
	eval := func(p []float64) (float64, error) {
		ex, err := chip.Execute(w.Circuit.Bind(p), shots)
		if err != nil {
			return 0, err
		}
		return w.Cost(ex.Outcomes), nil
	}
	res, err := backend.Optimize(wl.alg, eval, in.initial, wl.options(in))
	if err != nil {
		return nil, 0, err
	}
	return res.History, res.Evaluations, nil
}

// gate is the correctness gate of one benchmark invocation: every
// repeat's results must match the reference chip run, the record for
// this seed when one exists, the optimizer's documented evaluation
// count, and the first repeat's simulated accounting.
type gate struct {
	wl       workload
	history  []float64
	evals    int
	rec      record
	recorded bool
	first    *repeat
}

func newGate(wl workload, seed int64, records recordFile) (*gate, error) {
	h, n, err := referenceHistory(wl, seed)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	g := &gate{wl: wl, history: h, evals: n}
	g.rec, g.recorded = records.lookup(wl.name, seed)
	if g.recorded {
		if !sameBits(h, g.rec.History) || n != g.rec.Evaluations {
			return g, fmt.Errorf("reference run differs from the recorded history for seed %d", seed)
		}
	}
	return g, nil
}

// check validates one repeat.
func (g *gate) check(r *repeat) error {
	if want := g.wl.expectedEvaluations(r.nparams); g.evals != want {
		return fmt.Errorf("reference run made %d evaluations, optimizer documents %d", g.evals, want)
	}
	for _, c := range []struct {
		name  string
		res   report.RunResult
		evals int
	}{{"qtenon", r.qt, r.qtEval.evals}, {"baseline", r.bl, r.blEval.evals}} {
		if c.res.Evaluations != g.evals || c.evals != g.evals {
			return fmt.Errorf("%s: %d optimizer / %d machine evaluations, want %d", c.name, c.res.Evaluations, c.evals, g.evals)
		}
		if !sameBits(c.res.History, g.history) {
			return fmt.Errorf("%s: cost history %v differs from the reference %v", c.name, c.res.History, g.history)
		}
	}
	if g.recorded {
		if q, b := int64(r.qt.Breakdown.Total()), int64(r.bl.Breakdown.Total()); q != g.rec.QtenonSimPs || b != g.rec.BaseSimPs {
			return fmt.Errorf("simulated totals %d/%d ps differ from the record %d/%d", q, b, g.rec.QtenonSimPs, g.rec.BaseSimPs)
		}
	}
	if g.first == nil {
		g.first = r
		return nil
	}
	if r.qt.Breakdown != g.first.qt.Breakdown || r.bl.Breakdown != g.first.bl.Breakdown ||
		r.qt.PulsesGenerated != g.first.qt.PulsesGenerated {
		return fmt.Errorf("simulated accounting differs between repeats of one seed")
	}
	return nil
}

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

// recordedSeeds is how many seeds, from 0, the records file covers.
const recordedSeeds = 32

// writeRecords runs every workload once per seed in [0, recordedSeeds)
// and writes the records file (qbench -record records.json).
func writeRecords(path string) error {
	f := recordFile{DefaultSeed: defaultSeed, HeldOutSeed: heldOutSeed, Workloads: map[string]map[string]record{}}
	for _, wl := range workloads {
		f.Workloads[wl.name] = map[string]record{}
		for seed := int64(0); seed < recordedSeeds; seed++ {
			r, err := runRepeat(wl, seed, nil, nil)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", wl.name, seed, err)
			}
			if !sameBits(r.qt.History, r.bl.History) {
				return fmt.Errorf("%s seed %d: machines disagree", wl.name, seed)
			}
			f.Workloads[wl.name][strconv.FormatInt(seed, 10)] = record{
				Evaluations: r.qt.Evaluations,
				QtenonSimPs: int64(r.qt.Breakdown.Total()),
				BaseSimPs:   int64(r.bl.Breakdown.Total()),
				History:     r.qt.History,
			}
		}
	}
	out, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
