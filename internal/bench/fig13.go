package bench

import (
	"fmt"
	"strings"

	"qtenon/internal/host"
	"qtenon/internal/report"
	"qtenon/internal/system"
	"qtenon/internal/vqa"
)

// Figure13 reproduces the end-to-end breakdown of the VQE workload under
// SPSA on three machines: the decoupled baseline, Qtenon hardware without
// the software optimizations (FENCE + per-shot transmission), and full
// Qtenon.
func Figure13(sc Scale) (string, error) {
	nq := sc.HeadlineQubits()
	w, err := vqa.New(vqa.VQE, nq)
	if err != nil {
		return "", err
	}
	base, err := runBaseline(w, true, sc)
	if err != nil {
		return "", err
	}
	hw, err := runQtenonCfg(system.HardwareOnlyConfig(host.BoomL()), w, true, sc)
	if err != nil {
		return "", err
	}
	full, err := runQtenonCfg(system.DefaultConfig(host.BoomL()), w, true, sc)
	if err != nil {
		return "", err
	}

	var sb strings.Builder
	sb.WriteString(header(fmt.Sprintf("Figure 13: end-to-end breakdown, %d-qubit VQE, SPSA", nq)))
	tb := newTable("system", "total", "quantum %", "comm %", "pulse %", "host %")
	add := func(name string, r report.RunResult) {
		p := r.Breakdown.Percent()
		tb.AddRow(name, r.Breakdown.Total().String(),
			fmt.Sprintf("%.1f", p[0]), fmt.Sprintf("%.1f", p[1]),
			fmt.Sprintf("%.1f", p[2]), fmt.Sprintf("%.1f", p[3]))
	}
	add("(a) baseline", base)
	add("(b) Qtenon w/o software", hw)
	add("(c) Qtenon", full)
	sb.WriteString(tb.String())
	fmt.Fprintf(&sb, "speedups: baseline→(b) %.2f×, baseline→(c) %.2f×\n",
		report.Speedup(base.Breakdown.Total(), hw.Breakdown.Total()),
		report.Speedup(base.Breakdown.Total(), full.Breakdown.Total()))
	sb.WriteString("paper: (a) 204.3 ms (quantum 7.9%, comm 65.1%), (b) 22.1 ms (quantum 74.5%),\n")
	sb.WriteString("       (c) 18.1 ms (quantum 89.2%, comm 0.03%)\n")
	return sb.String(), nil
}
