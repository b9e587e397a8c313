package pipeline

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"qtenon/internal/circuit"
	"qtenon/internal/hw"
	"qtenon/internal/metrics"
	"qtenon/internal/qcc"
	"qtenon/internal/slt"
)

// runStepped is the one-cycle-per-step loop Run fast-forwards: the
// reference model the quiet-span skip must match cycle for cycle. It
// shares decode, writePulse and setStatus with Run, so a divergence can
// only come from the loop itself.
func (p *Pipeline) runStepped(items []WorkItem) (Result, error) {
	var res Result
	if len(items) == 0 {
		return res, nil
	}
	pgus := make([]pguState, p.cfg.PGUs)
	reqs := make([]bool, p.cfg.PGUs)
	free := make([]bool, p.cfg.PGUs)
	arb := hw.NewArbiter(p.cfg.PGUs)
	next := 0

	var s2 WorkItem
	var s2v bool
	var s3 job
	var s3v bool
	var s2stall int64

	inflight := func() bool {
		if s2v || s3v || s2stall > 0 {
			return true
		}
		for _, g := range pgus {
			if g.busy || g.done {
				return true
			}
		}
		return false
	}

	var cycles int64
	for next < len(items) || inflight() {
		cycles++
		if cycles > int64(len(items))*p.cfg.PGULatency*2+10000 {
			return res, fmt.Errorf("pipeline: livelock after %d cycles", cycles)
		}

		for i := range pgus {
			reqs[i] = pgus[i].done
		}
		if g := arb.Grant(reqs); g >= 0 {
			j := pgus[g].current
			if err := p.writePulse(j); err != nil {
				return res, err
			}
			if err := p.setStatus(j, qcc.StatusValid); err != nil {
				return res, err
			}
			pgus[g] = pguState{}
			res.Writebacks++
		}

		for i := range pgus {
			if pgus[i].busy {
				pgus[i].remain--
				if pgus[i].remain <= 0 {
					pgus[i].busy = false
					pgus[i].done = true
				}
			}
		}

		stalled := false
		if s3v {
			for i := range pgus {
				free[i] = !pgus[i].busy && !pgus[i].done
			}
			if g := hw.PriorityEncoder(free); g >= 0 {
				pgus[g] = pguState{busy: true, remain: p.cfg.PGULatency, current: s3}
				s3v = false
				busy := int64(0)
				for i := range pgus {
					if pgus[i].busy {
						busy++
					}
				}
				p.gPGUBusy.Set(busy)
			} else {
				stalled = true
				res.StallCycles++
			}
		}

		if s2stall > 0 {
			s2stall--
			res.QSpaceCycles++
		} else if !stalled && s2v && !s3v {
			j, generate, extra, err := p.decode(s2)
			if err != nil {
				return res, err
			}
			res.Processed++
			s2stall = extra
			if generate {
				s3, s3v = j, true
			} else {
				res.Skipped++
			}
			s2v = false
		}

		if !stalled && s2stall == 0 && !s2v && next < len(items) {
			s2, s2v = items[next], true
			next++
		}
	}
	res.Cycles = cycles
	res.Generated = res.Writebacks
	p.cProcessed.Add(int64(res.Processed))
	p.cGenerated.Add(int64(res.Generated))
	p.cSkipped.Add(int64(res.Skipped))
	p.cStall.Add(res.StallCycles)
	p.cQSpaceStall.Add(res.QSpaceCycles)
	p.cCycles.Add(res.Cycles)
	return res, nil
}

// diffRig is one instrumented pipeline with its own cache, SLT bank
// and metrics registry.
type diffRig struct {
	p     *Pipeline
	cache *qcc.Cache
	bank  *slt.Bank
	reg   *metrics.Registry
}

const diffQubits = 3

func newDiffRig(t *testing.T, cfg Config) *diffRig {
	t.Helper()
	p, cache, bank := rig(t, diffQubits, cfg)
	r := &diffRig{p: p, cache: cache, bank: bank, reg: metrics.NewRegistry()}
	p.Instrument(r.reg)
	return r
}

// diffScenario writes the same program into both rigs: a warm-up list
// over four RX parameters that share one 2-way SLT set (data tag<<4),
// so QSpace holds the evicted ones, then a
// random work list mixing SLT hits, QSpace hits, misses, repeated
// entries and register-indirect entries.
type diffScenario struct {
	warm, items []WorkItem
}

func buildScenario(rng *rand.Rand, n int, rigs ...*diffRig) diffScenario {
	writeProg := func(q, idx int, e qcc.ProgramEntry) {
		for _, r := range rigs {
			if err := r.cache.WriteProgram(q, idx, e, qcc.HostAccess); err != nil {
				panic(err)
			}
		}
	}
	writeReg := func(idx int, v uint32) {
		for _, r := range rigs {
			if err := r.cache.WriteReg(idx, v, qcc.HostAccess); err != nil {
				panic(err)
			}
		}
	}
	var sc diffScenario
	for q := 0; q < diffQubits; q++ {
		for i, tag := range []uint32{1, 2, 3, 4} {
			writeProg(q, i, qcc.ProgramEntry{Type: uint8(circuit.RX), Data: tag << 4})
			sc.warm = append(sc.warm, WorkItem{q, i})
		}
	}
	const regs = 8
	for r := 0; r < regs; r++ {
		writeReg(r, (1+uint32(rng.Intn(5)))<<4)
	}
	kinds := []circuit.Kind{circuit.RX, circuit.RY, circuit.RZ, circuit.H, circuit.X, circuit.RZZ, circuit.CZ}
	for i := 0; i < n; i++ {
		q := rng.Intn(diffQubits)
		idx := 8 + rng.Intn(48)
		e := qcc.ProgramEntry{Type: uint8(kinds[rng.Intn(len(kinds))])}
		switch rng.Intn(4) {
		case 0:
			e.Type = uint8(circuit.RX)
			e.Data = (1 + uint32(rng.Intn(5))) << 4
		case 1:
			e.Data = qcc.QuantizeAngle(rng.Float64() * 2 * circuit.Pi)
		case 2:
			e.Type = uint8(circuit.RX)
			fallthrough
		default:
			e.RegFlag, e.Data = true, uint32(rng.Intn(regs))
		}
		writeProg(q, idx, e)
		sc.items = append(sc.items, WorkItem{q, idx})
	}
	return sc
}

// checkSame fails unless two rigs hold identical state: every program
// and pulse entry, the cache traffic counters, the SLT bank, and the
// pulse/slt metrics snapshot (gauge high-water marks included).
func checkSame(t *testing.T, got, want *diffRig) {
	t.Helper()
	if got.cache.Stats != want.cache.Stats {
		t.Fatalf("cache stats %+v, stepped %+v", got.cache.Stats, want.cache.Stats)
	}
	cfg := got.cache.Config()
	for q := 0; q < cfg.NQubits; q++ {
		for i := 0; i < cfg.ProgramEntries; i++ {
			a, _ := got.cache.ReadProgram(q, i, qcc.HardwareAccess)
			b, _ := want.cache.ReadProgram(q, i, qcc.HardwareAccess)
			if a != b {
				t.Fatalf("program[%d][%d] = %+v, stepped %+v", q, i, a, b)
			}
		}
		for i := 0; i < cfg.PulseEntries; i++ {
			a, _ := got.cache.ReadPulse(q, i, qcc.HardwareAccess)
			b, _ := want.cache.ReadPulse(q, i, qcc.HardwareAccess)
			if a != b {
				t.Fatalf("pulse[%d][%d] = %v, stepped %v", q, i, a, b)
			}
		}
	}
	if !reflect.DeepEqual(got.bank, want.bank) {
		t.Fatal("SLT bank state differs from the stepped loop")
	}
	if a, b := got.reg.Snapshot(), want.reg.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("metrics %+v, stepped %+v", a, b)
	}
}

// runBoth runs items through Run on fast and the stepped oracle on
// ref, and requires identical results, errors and state.
func runBoth(t *testing.T, fast, ref *diffRig, items []WorkItem) error {
	t.Helper()
	got, gerr := fast.p.Run(items)
	want, werr := ref.p.runStepped(items)
	if fmt.Sprint(gerr) != fmt.Sprint(werr) {
		t.Fatalf("error %v, stepped %v", gerr, werr)
	}
	if got != want {
		t.Fatalf("result %+v, stepped %+v", got, want)
	}
	checkSame(t, fast, ref)
	return gerr
}

func diffConfig(pgus uint8, latency, qspace uint16, useSLT bool) Config {
	cfg := DefaultConfig()
	cfg.PGUs = 1 + int(pgus%16)
	cfg.PGULatency = 1 + int64(latency%2000)
	cfg.QSpaceLatency = int64(qspace % 301)
	cfg.UseSLT = useSLT
	return cfg
}

// FuzzPipelineMatchesStepped checks that Run, which fast-forwards over
// quiet cycles, is cycle-exact against the one-cycle-per-step loop over
// random work lists and pipeline geometries.
func FuzzPipelineMatchesStepped(f *testing.F) {
	f.Add(int64(1), uint8(7), uint16(999), uint16(100), true, uint8(40))
	f.Add(int64(2), uint8(0), uint16(0), uint16(300), true, uint8(127))
	f.Add(int64(3), uint8(1), uint16(4), uint16(37), true, uint8(64))
	f.Add(int64(4), uint8(15), uint16(1999), uint16(0), false, uint8(80))
	f.Add(int64(5), uint8(2), uint16(250), uint16(1), true, uint8(1))
	f.Add(int64(6), uint8(3), uint16(0), uint16(2), true, uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, pgus uint8, latency, qspace uint16, useSLT bool, n uint8) {
		cfg := diffConfig(pgus, latency, qspace, useSLT)
		fast, ref := newDiffRig(t, cfg), newDiffRig(t, cfg)
		sc := buildScenario(rand.New(rand.NewSource(seed)), int(n%128), fast, ref)
		if runBoth(t, fast, ref, sc.warm) != nil {
			return
		}
		runBoth(t, fast, ref, sc.items)
		// A second pass over the same list takes the status-valid and
		// SLT-hit paths.
		runBoth(t, fast, ref, sc.items)
	})
}

// TestLivelockMatchesStepped pins that the livelock limit fires, with
// the same text and partial result, under both loops: with 1-cycle PGUs,
// register-indirect gates cycling through three parameters that share
// one 2-way SLT set hit QSpace on every lookup, and the 300-cycle QSpace
// stalls outlast the limit.
func TestLivelockMatchesStepped(t *testing.T) {
	cfg := diffConfig(0, 0, 300, true)
	fast, ref := newDiffRig(t, cfg), newDiffRig(t, cfg)
	sc := buildScenario(rand.New(rand.NewSource(1)), 0, fast, ref)
	if err := runBoth(t, fast, ref, sc.warm); err != nil {
		t.Fatal(err)
	}
	// The warm-up leaves tags 1 and 3 in QSpace and 4 in the SLT's
	// replaceable way, so cycling 1, 3, 4 always misses the SLT and
	// always finds QSpace.
	var items []WorkItem
	for i, tag := range []uint32{1, 3, 4} {
		for _, r := range []*diffRig{fast, ref} {
			if err := r.cache.WriteReg(i, tag<<4, qcc.HostAccess); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 96; i++ {
		e := qcc.ProgramEntry{Type: uint8(circuit.RX), RegFlag: true, Data: uint32(i % 3)}
		for _, r := range []*diffRig{fast, ref} {
			if err := r.cache.WriteProgram(0, 8+i, e, qcc.HostAccess); err != nil {
				t.Fatal(err)
			}
		}
		items = append(items, WorkItem{0, 8 + i})
	}
	if err := runBoth(t, fast, ref, items); err == nil {
		t.Fatal("no livelock: the scenario no longer exercises the limit")
	}
}

// TestQuietSpanSkipsCycles pins quietSpan's bounds on hand-built
// states. The differential tests cannot see a fast-forward that stops
// engaging (a span of zero everywhere is still cycle-exact); this can.
func TestQuietSpanSkipsCycles(t *testing.T) {
	pgus := []pguState{{busy: true, remain: 1000}, {}}
	if k := quietSpan(pgus, false, false, 0, false, 1<<40); k != 999 {
		t.Errorf("span over one busy PGU = %d, want 999", k)
	}
	if k := quietSpan(pgus, false, false, 0, false, 10); k != 10 {
		t.Errorf("span ignores the livelock headroom: %d, want 10", k)
	}
	if k := quietSpan(pgus, false, false, 0, true, 1<<40); k != 0 {
		t.Errorf("span with a fetch pending = %d, want 0", k)
	}
	if k := quietSpan(pgus, false, false, 50, true, 1<<40); k != 49 {
		t.Errorf("span with a fetch behind a QSpace stall = %d, want 49", k)
	}
	if k := quietSpan(pgus, false, true, 0, true, 1<<40); k != 0 {
		t.Errorf("span with a free PGU and a stage-3 job = %d, want 0", k)
	}
	pgus[1] = pguState{busy: true, remain: 300}
	if k := quietSpan(pgus, true, true, 0, true, 1<<40); k != 299 {
		t.Errorf("stalled span = %d, want 299", k)
	}
	pgus[0] = pguState{done: true}
	if k := quietSpan(pgus, false, false, 0, false, 1<<40); k != 0 {
		t.Errorf("span with a done PGU = %d, want 0", k)
	}
	if k := quietSpan([]pguState{{}}, false, false, 40, false, 1<<40); k != 40 {
		t.Errorf("drain span = %d, want 40", k)
	}
}
