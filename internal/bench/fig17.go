package bench

import (
	"fmt"
	"strings"

	"qtenon/internal/host"
	"qtenon/internal/report"
	"qtenon/internal/sim"
	"qtenon/internal/vqa"
)

// ScaleRow is one point of the Figure 17 scalability sweep.
type ScaleRow struct {
	Workload vqa.Kind
	Qubits   int
	Comm     sim.Time
	Host     sim.Time
}

// scalePoints enumerates the Figure 17 grid in output order.
func scalePoints(sc Scale) (kinds []vqa.Kind, qubits []int) {
	return []vqa.Kind{vqa.QAOA, vqa.VQE}, sc.ScaleQubits()
}

// runScaleGrid executes every (workload × qubit-count) point of the
// Figure 17 sweep across the worker pool, returning results indexed in
// kind-major grid order.
func runScaleGrid(sc Scale) ([]report.RunResult, error) {
	kinds, qubits := scalePoints(sc)
	results := make([]report.RunResult, len(kinds)*len(qubits))
	err := forEachPoint(len(results), func(i int) error {
		w, err := vqa.New(kinds[i/len(qubits)], qubits[i%len(qubits)])
		if err != nil {
			return err
		}
		results[i], err = runQtenon(w, host.BoomL(), true, sc)
		return err
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// ScaleRows computes the Figure 17 data points (SPSA, Boom core).
func ScaleRows(sc Scale) ([]ScaleRow, error) {
	kinds, qubits := scalePoints(sc)
	results, err := runScaleGrid(sc)
	if err != nil {
		return nil, err
	}
	var rows []ScaleRow
	for ki, k := range kinds {
		for qi, nq := range qubits {
			res := results[ki*len(qubits)+qi]
			rows = append(rows, ScaleRow{Workload: k, Qubits: nq, Comm: res.Breakdown.Comm, Host: res.HostActivity})
		}
	}
	return rows, nil
}

// ScaleCSV renders the scalability sweep as CSV.
func ScaleCSV(rows []ScaleRow) string {
	var sb strings.Builder
	sb.WriteString("workload,qubits,comm_ns,host_ns\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%s,%d,%.3f,%.3f\n", r.Workload, r.Qubits, r.Comm.Nanoseconds(), r.Host.Nanoseconds())
	}
	return sb.String()
}

// Figure17 reproduces the scalability study: Qtenon's quantum-host
// communication time and host (classical computation) time for QAOA and
// VQE under SPSA as qubits grow from 64 to 320, relative to the 64-qubit
// point, plus the full breakdown at 256 qubits.
func Figure17(sc Scale) (string, error) {
	var sb strings.Builder
	sb.WriteString(header("Figure 17: scalability (SPSA, Boom core)"))

	kinds, qubits := scalePoints(sc)
	results, err := runScaleGrid(sc)
	if err != nil {
		return "", err
	}
	base := map[vqa.Kind][2]sim.Time{}
	var detailAt int
	if len(qubits) >= 4 {
		detailAt = qubits[3] // 256 in the full sweep
	} else {
		detailAt = qubits[len(qubits)-1]
	}
	var detail string
	tb := newTable("workload", "qubits", "comm time", "rel", "host time", "rel")
	for ki, k := range kinds {
		for qi, nq := range qubits {
			res := results[ki*len(qubits)+qi]
			comm := res.Breakdown.Comm
			hostT := res.HostActivity
			if _, ok := base[k]; !ok {
				base[k] = [2]sim.Time{comm, hostT}
			}
			b := base[k]
			tb.AddRow(k.String(), nq, comm.String(),
				fmt.Sprintf("%.2f", float64(comm)/float64(b[0])),
				hostT.String(),
				fmt.Sprintf("%.2f", float64(hostT)/float64(b[1])))
			if nq == detailAt && k == vqa.VQE {
				p := res.Breakdown.Percent()
				detail = fmt.Sprintf(
					"(c) %d-qubit VQE breakdown: quantum %.1f%%, comm %.2f%%, pulse %.1f%%, host %.1f%%\n"+
						"    paper @256q: quantum 76%%, comm 0.03–0.1%%, pulse ~16%%, host ~8%%\n",
					nq, p[0], p[1], p[2], p[3])
			}
		}
	}
	sb.WriteString(tb.String())
	sb.WriteString(detail)
	sb.WriteString("paper: comm and host time scale near-linearly; @320q VQE comm 34.4 µs, QAOA 12.5 µs;\n")
	sb.WriteString("       host time 6.4 ms (VQE) / 11.8 ms (QAOA) — quantum execution still dominates.\n")
	return sb.String(), nil
}
