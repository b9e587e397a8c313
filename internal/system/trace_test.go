package system

import (
	"testing"

	"qtenon/internal/host"
	"qtenon/internal/report"
	"qtenon/internal/sched"
	"qtenon/internal/sim"
	"qtenon/internal/trace"
	"qtenon/internal/vqa"
)

// TestTraceSpansReconcileWithBreakdown: every evaluation's spans, summed
// per resource lane, equal the breakdown that evaluation added — host
// to HostComp, rocc/bus to Comm, pipeline to PulseGen, quantum to
// Quantum — under both synchronization modes. The evaluations cover the
// first upload (q_set), one-parameter and all-parameter updates
// (q_update) and an unchanged vector.
func TestTraceSpansReconcileWithBreakdown(t *testing.T) {
	w, err := vqa.New(vqa.QAOA, 8)
	if err != nil {
		t.Fatal(err)
	}
	one := append([]float64(nil), w.InitialParams...)
	one[0] += 0.25
	all := append([]float64(nil), one...)
	for i := range all {
		all[i] -= 0.125
	}
	vectors := [][]float64{w.InitialParams, one, all, all}
	for _, mode := range []sched.SyncMode{sched.FineGrained, sched.FENCE} {
		cfg := DefaultConfig(host.BoomL())
		cfg.Sync = mode
		s, err := New(cfg, w)
		if err != nil {
			t.Fatal(err)
		}
		rec := &trace.Recorder{}
		s.SetTrace(rec)
		var prev report.Breakdown
		seen := 0
		for i, p := range vectors {
			if _, err := s.Evaluate(p); err != nil {
				t.Fatal(err)
			}
			bd := s.Result().Breakdown
			lanes := map[string]sim.Time{}
			for _, sp := range rec.Spans()[seen:] {
				lanes[sp.Resource] += sp.Duration()
			}
			seen = rec.Len()
			for _, c := range []struct {
				lane string
				want sim.Time
			}{
				{"host", bd.HostComp - prev.HostComp},
				{"rocc/bus", bd.Comm - prev.Comm},
				{"pipeline", bd.PulseGen - prev.PulseGen},
				{"quantum", bd.Quantum - prev.Quantum},
			} {
				if got := lanes[c.lane]; got != c.want {
					t.Errorf("%v evaluation %d: %s spans sum to %v, breakdown added %v", mode, i, c.lane, got, c.want)
				}
			}
			prev = bd
		}
		if t.Failed() {
			t.Logf("%v timeline:\n%s", mode, rec.Render(100))
		}
	}
}
