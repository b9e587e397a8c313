package main

import (
	"strings"
	"testing"
)

// reduced shrinks a workload so the fidelity test runs in seconds while
// keeping its engine and optimizer: VQE stays on the dense statevector,
// QAOA stays past the sharded window on the product surrogate.
func reduced(t *testing.T, name string) workload {
	t.Helper()
	wl, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	if wl.qubits == 16 {
		wl.qubits = 6
	} else {
		wl.qubits = 32
	}
	wl.iterations = 1
	return wl
}

// TestShadowFidelity replays every evaluation of a reduced run of each
// workload through the shadow stack. attachShadow fails the run on the
// first evaluation whose cost bits, cumulative simulated breakdown or
// SLT/pulse/beat/event counters differ from the machine's; the totals are
// checked again here at the end.
func TestShadowFidelity(t *testing.T) {
	for _, w := range workloads {
		wl := reduced(t, w.name)
		t.Run(w.name, func(t *testing.T) {
			r, err := runRepeat(wl, defaultSeed, nil, attachShadow)
			if err != nil {
				t.Fatal(err)
			}
			sh := r.shadow
			if sh.evals != r.qt.Evaluations || sh.blEvals != r.bl.Evaluations {
				t.Fatalf("shadow replayed %d/%d evaluations, machines ran %d/%d",
					sh.evals, sh.blEvals, r.qt.Evaluations, r.bl.Evaluations)
			}
			if got := sh.counters[cPulses]; got != r.qt.PulsesGenerated {
				t.Errorf("shadow generated %d pulses, machine %d", got, r.qt.PulsesGenerated)
			}
			hits := sh.counters[cSLTHits] + sh.counters[cSLTQSpaceHits]
			if got := float64(hits) / float64(sh.counters[cSLTLookups]); got != r.qt.SLTHitRate {
				t.Errorf("shadow SLT hit ratio %v, machine %v", got, r.qt.SLTHitRate)
			}
			if sh.counters[cEvents] == 0 || sh.counters[cBeats] == 0 {
				t.Errorf("shadow counted no engine events or bus beats: %v", sh.counters)
			}
			g, err := newGate(wl, defaultSeed, recordFile{})
			if err != nil {
				t.Fatal(err)
			}
			if err := g.check(&r); err != nil {
				t.Fatalf("gate: %v", err)
			}
		})
	}
}

// TestGateRejectsMismatch checks that the gate fails a run whose history
// differs from the record for its seed.
func TestGateRejectsMismatch(t *testing.T) {
	wl := reduced(t, "qaoa64-gd")
	h, n, err := referenceHistory(wl, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]float64(nil), h...)
	bad[0] += 1e-9
	recs := recordFile{Workloads: map[string]map[string]record{wl.name: {"1": {Evaluations: n, History: bad}}}}
	if _, err := newGate(wl, defaultSeed, recs); err == nil || !strings.Contains(err.Error(), "recorded history") {
		t.Fatalf("gate accepted a history that differs from the record: %v", err)
	}
}

// TestRecordsCoverDefaultAndHeldOutSeeds checks the embedded records
// hold the default and held-out seed of every workload.
func TestRecordsCoverDefaultAndHeldOutSeeds(t *testing.T) {
	f, err := loadRecords()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		for _, seed := range []int64{defaultSeed, heldOutSeed} {
			r, ok := f.lookup(wl.name, seed)
			if !ok || len(r.History) != wl.iterations {
				t.Errorf("%s seed %d: record missing or not %d iterations long", wl.name, seed, wl.iterations)
			}
		}
	}
}
