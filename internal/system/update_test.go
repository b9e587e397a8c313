package system

import (
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/host"
	"qtenon/internal/pulse"
	"qtenon/internal/qcc"
)

// After a parameter change, the next Evaluate must leave the quantized
// angle in .regfile at the parameter's register (q_update) and
// regenerate the pulse of every gate that reads that register (q_gen):
// the pulse the program entry links to is the one synthesized for the
// new angle.
func TestParameterUpdateReachesRegfileAndPulse(t *testing.T) {
	w := smallQAOA(t)
	s, err := New(DefaultConfig(host.BoomL()), w)
	if err != nil {
		t.Fatal(err)
	}
	params := append([]float64(nil), w.InitialParams...)
	if _, err := s.Evaluate(params); err != nil {
		t.Fatal(err)
	}
	pgu := pulse.NewPGU()
	timing := circuit.DefaultTiming()
	for i := range params {
		params[i] += 0.37 + 0.01*float64(i) // an angle no earlier evaluation used
		before := s.pulsesGen
		if _, err := s.Evaluate(params); err != nil {
			t.Fatal(err)
		}
		reg := s.prog.ParamReg[i]
		want := qcc.QuantizeAngle(params[i])
		got, err := s.cache.ReadReg(reg, qcc.HostAccess)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("param %d: regfile[%d] = %d, want %d", i, reg, got, want)
		}
		if s.pulsesGen == before {
			t.Errorf("param %d: changing it generated no pulse", i)
		}
		readers := 0
		for q, chunk := range s.prog.Entries {
			for idx := range chunk {
				e, err := s.cache.ReadProgram(q, idx, qcc.HardwareAccess)
				if err != nil {
					t.Fatal(err)
				}
				if !e.RegFlag || int(e.Data) != reg {
					continue
				}
				readers++
				if e.Status != qcc.StatusValid {
					t.Errorf("param %d: program[%d][%d] status %d, want valid", i, q, idx, e.Status)
				}
				kind := circuit.Kind(e.Type)
				wantPulse := pgu.Generate(kind, qcc.DequantizeAngle(want&qcc.MaxEntryData), timing.GateDuration(kind).Nanoseconds())[0]
				gotPulse, err := s.cache.ReadPulse(q, int(e.QAddr)%s.cacheCfg.PulseEntries, qcc.HardwareAccess)
				if err != nil {
					t.Fatal(err)
				}
				if gotPulse != wantPulse {
					t.Errorf("param %d: program[%d][%d] links a pulse that is not the new angle's", i, q, idx)
				}
			}
		}
		if readers == 0 {
			t.Fatalf("param %d: no program entry reads regfile[%d]", i, reg)
		}
	}
}
