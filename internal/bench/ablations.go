package bench

import (
	"fmt"
	"strings"

	"qtenon/internal/host"
	"qtenon/internal/opt"
	"qtenon/internal/quantum"
	"qtenon/internal/report"
	"qtenon/internal/sched"
	"qtenon/internal/system"
	"qtenon/internal/tilelink"
	"qtenon/internal/vqa"
)

// Ablations runs the design-choice studies DESIGN.md calls out beyond
// the paper's own figures: SLT on/off, PGU count sweep, bus tag (RBQ
// depth) sweep, and the batch-interval sensitivity.
func Ablations(sc Scale) (string, error) {
	nq := sc.HeadlineQubits()
	var sb strings.Builder
	sb.WriteString(header(fmt.Sprintf("Ablations, %d-qubit VQE, SPSA (Boom core)", nq)))

	w, err := vqa.New(vqa.VQE, nq)
	if err != nil {
		return "", err
	}
	// SLT on/off.
	withSLT, err := runQtenonCfg(system.DefaultConfig(host.BoomL()), w, true, sc)
	if err != nil {
		return "", err
	}
	noSLTCfg := system.DefaultConfig(host.BoomL())
	noSLTCfg.UseSLT = false
	noSLT, err := runQtenonCfg(noSLTCfg, w, true, sc)
	if err != nil {
		return "", err
	}
	tb := newTable("config", "pulses generated", "pulse-gen time", "end-to-end")
	tb.AddRow("with SLT", withSLT.PulsesGenerated, withSLT.Breakdown.PulseGen.String(), withSLT.Breakdown.Total().String())
	tb.AddRow("without SLT", noSLT.PulsesGenerated, noSLT.Breakdown.PulseGen.String(), noSLT.Breakdown.Total().String())
	sb.WriteString("SLT ablation:\n" + tb.String())
	fmt.Fprintf(&sb, "SLT saves %.1f%% of pulse syntheses\n\n",
		100*(1-float64(withSLT.PulsesGenerated)/float64(noSLT.PulsesGenerated)))

	// PGU count sweep.
	tb = newTable("PGUs", "pulse-gen time", "speedup vs 1")
	var onePGU report.RunResult
	for _, pgus := range []int{1, 2, 4, 8, 16} {
		cfg := system.DefaultConfig(host.BoomL())
		cfg.PGUs = pgus
		res, err := runQtenonCfg(cfg, w, true, sc)
		if err != nil {
			return "", err
		}
		if pgus == 1 {
			onePGU = res
		}
		tb.AddRow(pgus, res.Breakdown.PulseGen.String(),
			fmt.Sprintf("%.2f", report.Speedup(onePGU.Breakdown.PulseGen, res.Breakdown.PulseGen)))
	}
	sb.WriteString("PGU sweep (paper uses 8):\n" + tb.String() + "\n")

	// Bus tag sweep: effect of outstanding-request budget on the q_set
	// upload of a large program.
	tb = newTable("tags", "q_set upload cycles (1000 beats)")
	for _, tags := range []int{2, 4, 8, 16, 32} {
		cfg := tilelink.DefaultConfig()
		cfg.Tags = tags
		bus, err := tilelink.NewBus(cfg)
		if err != nil {
			return "", err
		}
		rbq := tilelink.NewRBQ(tags, 8, 1<<16)
		res, err := tilelink.Transfer(bus, rbq, 0, 1000, false, nil)
		if err != nil {
			return "", err
		}
		tb.AddRow(tags, res.Cycles)
	}
	sb.WriteString("TileLink tag sweep (paper uses 32, 5-bit):\n" + tb.String() + "\n")

	// Batch interval sensitivity: host activity vs K.
	tb = newTable("batch K", "host activity", "comm activity")
	for _, k := range []int{1, 2, 4, 8, 16} {
		in := sched.TimelineInput{
			Mode:             sched.FineGrained,
			ShotTime:         1100, // ps units irrelevant for the ratio
			Batches:          sched.PlanBatches(sc.Shots(), k),
			TransferPerBatch: 20,
			HostPerShot:      140,
			HostPerBatch:     100,
		}
		tl := sched.Compute(in)
		tb.AddRow(k, tl.HostActivity.String(), tl.CommActivity.String())
	}
	sb.WriteString("batch-interval sweep (Algorithm 1 picks K=⌊bus/N⌋):\n" + tb.String() + "\n")

	// NISQ-noise robustness: optimizer progress under realistic error
	// rates (exact 10-qubit backend so noise is the only difference).
	w, err = vqa.New(vqa.QAOA, 10)
	if err != nil {
		return "", err
	}
	o := sc.options()
	o.Iterations = max(o.Iterations, 5)
	tb = newTable("chip", "initial cost", "best cost", "improvement")
	for _, noisy := range []bool{false, true} {
		cfg := system.DefaultConfig(host.BoomL())
		cfg.Shots = sc.Shots()
		label := "ideal"
		if noisy {
			cfg.Noise = quantum.TypicalNISQ()
			label = "typical NISQ"
		}
		sys, err := system.New(cfg, w)
		if err != nil {
			return "", err
		}
		initial, err := sys.Evaluate(w.InitialParams)
		if err != nil {
			return "", err
		}
		res, err := opt.SPSA(sys.Evaluate, w.InitialParams, o)
		if err != nil {
			return "", err
		}
		best := res.History[0]
		for _, c := range res.History {
			if c < best {
				best = c
			}
		}
		tb.AddRow(label, fmt.Sprintf("%.3f", initial), fmt.Sprintf("%.3f", best),
			fmt.Sprintf("%.3f", initial-best))
	}
	sb.WriteString("NISQ-noise robustness (10-qubit QAOA, SPSA):\n" + tb.String())
	return sb.String(), nil
}
