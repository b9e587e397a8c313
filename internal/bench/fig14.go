package bench

import (
	"fmt"
	"strings"

	"qtenon/internal/host"
	"qtenon/internal/report"
	"qtenon/internal/vqa"
)

// Figure14 reproduces the quantum-host communication analysis: total
// communication time on the baseline vs Qtenon (Boom core, §7.3) for GD
// and SPSA, plus Qtenon's breakdown by instruction class
// (q_set / q_update / q_acquire).
func Figure14(sc Scale) (string, error) {
	nq := sc.HeadlineQubits()
	var sb strings.Builder
	sb.WriteString(header(fmt.Sprintf("Figure 14: quantum-host communication, %d qubits (Boom core)", nq)))

	for _, spsa := range []bool{false, true} {
		tb := newTable("workload", "baseline comm", "Qtenon comm", "speedup",
			"q_set %", "q_update %", "q_acquire %")
		for _, k := range vqa.Kinds() {
			w, err := vqa.New(k, nq)
			if err != nil {
				return "", err
			}
			base, err := runBaseline(w, spsa, sc)
			if err != nil {
				return "", err
			}
			qt, err := runQtenon(w, host.BoomL(), spsa, sc)
			if err != nil {
				return "", err
			}
			cp := qt.Comm.Percent()
			tb.AddRow(k.String(), base.Breakdown.Comm.String(), qt.Breakdown.Comm.String(),
				fmt.Sprintf("%.0f", report.Speedup(base.Breakdown.Comm, qt.Breakdown.Comm)),
				fmt.Sprintf("%.1f", cp[0]), fmt.Sprintf("%.1f", cp[1]), fmt.Sprintf("%.1f", cp[2]))
		}
		fmt.Fprintf(&sb, "-- %s --\n%s", optimizerName(spsa), tb.String())
	}
	sb.WriteString("paper (GD): baseline QAOA 94.3 ms / QNN 2.7 s; Qtenon QAOA 14.2 µs / QNN 456 µs\n")
	sb.WriteString("            (5921× and 6647×); q_acquire 85.2% (QAOA) / 98.1% (QNN)\n")
	sb.WriteString("paper (SPSA): baseline 18.4 ms for all; Qtenon dominated by q_set/q_update\n")
	return sb.String(), nil
}
