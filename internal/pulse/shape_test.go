package pulse

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"qtenon/internal/circuit"
)

// synthesizeOracle is the per-sample synthesis Synthesize and
// PGU.Generate replaced: it recomputes the envelope and the drive-axis
// rotation for every sample of every pulse. The cached unit shapes must
// reproduce it bit for bit.
func synthesizeOracle(kind circuit.Kind, theta float64, durationNs float64, p Params) Waveform {
	n := int(durationNs * p.SampleRateHz / 1e9)
	if n <= 0 {
		n = 1
	}
	wf := make(Waveform, n)
	scale := p.Amplitude * normalizedAngle(theta) / math.Pi
	center := float64(n-1) / 2
	sigmaSamples := p.Sigma * p.SampleRateHz
	if sigmaSamples <= 0 {
		sigmaSamples = float64(n) / 4
	}
	phase := drivePhase(kind)
	for i := range wf {
		t := (float64(i) - center) / sigmaSamples
		env := math.Exp(-t * t / 2)
		denv := -t / sigmaSamples * env * p.DRAGLambda
		iVal := scale * (env*math.Cos(phase) - denv*math.Sin(phase))
		qVal := scale * (env*math.Sin(phase) + denv*math.Cos(phase))
		wf[i] = IQ{I: quantize(iVal), Q: quantize(qVal)}
	}
	return wf
}

// oracleAngles mixes fixed edge cases with random angles, many far
// outside ±π.
func oracleAngles(rng *rand.Rand) []float64 {
	angles := []float64{0, math.Pi, -math.Pi, math.Pi / 2, 2 * math.Pi, -7 * math.Pi / 3, 1e6 + 0.5, -1e9, math.SmallestNonzeroFloat64}
	for i := 0; i < 24; i++ {
		angles = append(angles, (rng.Float64()*2-1)*math.Pow(10, float64(rng.Intn(7))))
	}
	return angles
}

var oracleDurations = []float64{0, 7, 20, 33, 40}

// checkAgainstOracle requires pgu.Generate and Synthesize to equal the
// oracle for every 4-bit gate type, angle and duration under the PGU's
// current Params.
func checkAgainstOracle(t *testing.T, pgu *PGU, angles []float64) {
	t.Helper()
	for k := 0; k < 16; k++ {
		kind := circuit.Kind(k)
		for _, dur := range oracleDurations {
			for _, theta := range angles {
				want := synthesizeOracle(kind, theta, dur, pgu.Params)
				if got := Synthesize(kind, theta, dur, pgu.Params); !slices.Equal(got, want) {
					t.Fatalf("Synthesize(%v, %g, %g ns) differs from the per-sample oracle", kind, theta, dur)
				}
				if got, want := pgu.Generate(kind, theta, dur), PackEntries(want); !slices.Equal(got, want) {
					t.Fatalf("Generate(%v, %g, %g ns) = %v, oracle %v", kind, theta, dur, got, want)
				}
			}
		}
	}
}

func TestGenerateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	checkAgainstOracle(t, NewPGU(), oracleAngles(rng))
}

// TestGenerateTracksParams changes Params after shapes are cached: every
// later pulse must follow the new Params, never a stale shape.
func TestGenerateTracksParams(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	angles := oracleAngles(rng)
	pgu := NewPGU()
	checkAgainstOracle(t, pgu, angles)
	for _, change := range []func(*Params){
		func(p *Params) { p.Sigma = 3e-9 },
		func(p *Params) { p.DRAGLambda = -1.25 },
		func(p *Params) { p.Amplitude = 0.3 },
		func(p *Params) { p.SampleRateHz = 1e9 },
		func(p *Params) { p.Sigma = 0 }, // falls back to n/4 samples
	} {
		change(&pgu.Params)
		checkAgainstOracle(t, pgu, angles)
	}
}

// TestGenerateReusesBuffer pins the allocation contract: once warmed, a
// PGU renders pulses without touching the heap.
func TestGenerateReusesBuffer(t *testing.T) {
	pgu := NewPGU()
	pgu.Generate(circuit.RX, 1, 40)
	pgu.Generate(circuit.RY, 1, 20)
	theta := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		theta += 0.1
		pgu.Generate(circuit.RX, theta, 20)
		pgu.Generate(circuit.RY, theta, 40)
	})
	if allocs != 0 {
		t.Errorf("warmed Generate allocates %.1f times per pair", allocs)
	}
}
