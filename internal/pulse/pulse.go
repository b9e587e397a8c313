// Package pulse implements control-pulse synthesis for superconducting
// qubits: envelope generation (Gaussian and DRAG), IQ quantization to the
// 16-bit DAC format, packing into the 640-bit .pulse cache entries of
// Table 2, and the SerDes framing that feeds two 2 GHz DACs per qubit.
//
// The paper treats its Pulse Generation Units as black boxes with a fixed
// 1000-cycle latency; we keep that timing contract but also make the PGU
// functional, so that the Skip Lookup Table's claim — identical (gate
// type, quantized angle) always yields an identical pulse — is a testable
// property rather than an assumption.
package pulse

import (
	"fmt"
	"math"

	"qtenon/internal/circuit"
)

// DAC and entry geometry from §5.2 of the paper.
const (
	DACBits        = 16            // per-sample resolution
	DACRateHz      = 2_000_000_000 // 2 GHz sample clock
	DACsPerQubit   = 2             // I and Q channels
	EntryBits      = 640           // one .pulse cache entry
	WordsPerEntry  = EntryBits / 64
	SamplesPerWord = 64 / (DACBits * DACsPerQubit) // 2 IQ pairs per 64-bit word
	// SamplesPerEntry is the number of IQ sample pairs a 640-bit entry
	// carries: 640 / 32 = 20 pairs, i.e. 10 ns of drive at 2 GS/s.
	SamplesPerEntry = EntryBits / (DACBits * DACsPerQubit)
)

// BandwidthBitsPerNs is the per-qubit ADI output requirement:
// 16 bit × 2 DACs × 2 GHz = 64 bit/ns (8 GB/s), as derived in §5.2.
const BandwidthBitsPerNs = DACBits * DACsPerQubit * (DACRateHz / 1_000_000_000)

// IQ is one complex drive sample quantized to the DAC range.
type IQ struct {
	I int16
	Q int16
}

// Waveform is a sequence of IQ samples at the DAC rate.
type Waveform []IQ

// Params controls envelope synthesis.
type Params struct {
	SampleRateHz float64 // DAC rate
	Sigma        float64 // Gaussian width in seconds
	DRAGLambda   float64 // DRAG correction weight
	Amplitude    float64 // peak drive, 0..1 of full scale
}

// DefaultParams returns typical transmon drive settings: 20 ns gates with
// σ = duration/4 and a standard DRAG coefficient.
func DefaultParams() Params {
	return Params{
		SampleRateHz: DACRateHz,
		Sigma:        5e-9,
		DRAGLambda:   0.5,
		Amplitude:    0.8,
	}
}

// Synthesize renders the drive waveform for a gate of the given kind and
// rotation angle lasting `durationNs` nanoseconds. The envelope is a
// Gaussian scaled by angle/π (a linear-response calibration), with a DRAG
// derivative component on the quadrature channel for X/Y-type rotations.
// Z-type rotations are virtual (frame updates) but still emit a frame
// marker entry so downstream accounting sees one pulse per gate, matching
// the paper's pulse-count model.
func Synthesize(kind circuit.Kind, theta float64, durationNs float64, p Params) Waveform {
	s := newShape(sampleCount(durationNs, p), drivePhase(kind), p)
	scale := angleScale(theta, p)
	wf := make(Waveform, s.n)
	for i := range wf {
		wf[i] = s.sample(i, scale)
	}
	return wf
}

// sampleCount is the number of DAC samples in a pulse of durationNs,
// clamped to one so every gate emits at least a marker sample.
func sampleCount(durationNs float64, p Params) int {
	n := int(durationNs * p.SampleRateHz / 1e9)
	if n <= 0 {
		n = 1
	}
	return n
}

// angleScale is the amplitude a rotation by theta applies to the unit
// shape.
func angleScale(theta float64, p Params) float64 {
	return p.Amplitude * normalizedAngle(theta) / math.Pi
}

// shape is the unit-amplitude drive of one (sample count, drive axis)
// pair under one Params: the I and Q values every pulse of that pair
// scales by its angle. It depends on neither the angle nor Amplitude, so
// a PGU computes it once and renders each pulse with one multiply and
// one quantization per sample.
type shape struct {
	n     int
	phase float64
	i, q  []float64
}

func newShape(n int, phase float64, p Params) shape {
	s := shape{n: n, phase: phase, i: make([]float64, n), q: make([]float64, n)}
	center := float64(n-1) / 2
	sigmaSamples := p.Sigma * p.SampleRateHz
	if sigmaSamples <= 0 {
		sigmaSamples = float64(n) / 4
	}
	for k := 0; k < n; k++ {
		t := (float64(k) - center) / sigmaSamples
		env := math.Exp(-t * t / 2)
		denv := -t / sigmaSamples * env * p.DRAGLambda
		// Rotate (env, denv) by the drive phase to select X vs Y axis.
		s.i[k] = env*math.Cos(phase) - denv*math.Sin(phase)
		s.q[k] = env*math.Sin(phase) + denv*math.Cos(phase)
	}
	return s
}

// sample renders sample k of the shape at the given angle scale.
func (s *shape) sample(k int, scale float64) IQ {
	return IQ{I: quantize(scale * s.i[k]), Q: quantize(scale * s.q[k])}
}

// normalizedAngle folds an angle into (-π, π] so that physically
// equivalent rotations produce identical drives.
func normalizedAngle(theta float64) float64 {
	t := math.Mod(theta, 2*math.Pi)
	if t > math.Pi {
		t -= 2 * math.Pi
	}
	if t <= -math.Pi {
		t += 2 * math.Pi
	}
	return t
}

// drivePhase maps a gate kind to its IQ drive axis.
func drivePhase(kind circuit.Kind) float64 {
	switch kind {
	case circuit.RY, circuit.Y:
		return math.Pi / 2
	case circuit.H:
		return math.Pi / 4 // composite X+Z drive approximation
	default:
		return 0
	}
}

func quantize(v float64) int16 {
	const full = math.MaxInt16
	x := math.Round(v * full)
	if x > full {
		x = full
	}
	if x < -full-1 {
		x = -full - 1
	}
	return int16(x)
}

// Entry is a packed 640-bit .pulse cache line: ten 64-bit words, each
// carrying two IQ pairs, the exact layout the ten parallel 64-bit output
// buffers consume (§5.2).
type Entry [WordsPerEntry]uint64

// PackEntries packs a waveform into consecutive 640-bit entries, zero
// padding the tail.
func PackEntries(wf Waveform) []Entry {
	out := make([]Entry, entryCount(len(wf)))
	for i, s := range wf {
		putSample(out, i, s)
	}
	return out
}

// entryCount is the number of entries n samples occupy (at least one).
func entryCount(n int) int {
	return max(1, (n+SamplesPerEntry-1)/SamplesPerEntry)
}

// putSample ORs sample i into its slot of the zeroed entry run out.
func putSample(out []Entry, i int, s IQ) {
	word := (i % SamplesPerEntry) / SamplesPerWord
	slot := i % SamplesPerWord
	packed := uint64(uint16(s.I)) | uint64(uint16(s.Q))<<16
	out[i/SamplesPerEntry][word] |= packed << (32 * slot)
}

// UnpackEntries reverses PackEntries; n is the original sample count.
func UnpackEntries(entries []Entry, n int) Waveform {
	wf := make(Waveform, n)
	for i := range wf {
		e := entries[i/SamplesPerEntry]
		word := (i % SamplesPerEntry) / SamplesPerWord
		slot := i % SamplesPerWord
		packed := e[word] >> (32 * slot)
		wf[i] = IQ{I: int16(uint16(packed)), Q: int16(uint16(packed >> 16))}
	}
	return wf
}

// SerDes models the serializer between the 200 MHz SRAM read port and the
// 2 GHz DACs: each 640-bit entry is latched into ten parallel 64-bit
// buffers and shifted out one 64-bit word per DAC tick pair. Its only
// architectural property is rate matching, which Verify checks.
type SerDes struct {
	SRAMHz int64
	DACHz  int64
}

// NewSerDes returns the paper's configuration (200 MHz SRAM, 2 GHz DAC).
func NewSerDes() SerDes { return SerDes{SRAMHz: 200_000_000, DACHz: DACRateHz} }

// Verify checks that one entry per SRAM cycle sustains the DAC demand:
// entry bits × SRAM rate ≥ required bit rate.
func (s SerDes) Verify() error {
	supply := float64(EntryBits) * float64(s.SRAMHz)
	demand := float64(DACBits*DACsPerQubit) * float64(s.DACHz)
	if supply < demand {
		return fmt.Errorf("pulse: SerDes underrun: supply %.0f bit/s < demand %.0f bit/s", supply, demand)
	}
	return nil
}

// Serialize flattens entries into the 64-bit word stream sent to the DAC
// pair, in output order.
func (s SerDes) Serialize(entries []Entry) []uint64 {
	out := make([]uint64, 0, len(entries)*WordsPerEntry)
	for _, e := range entries {
		out = append(out, e[:]...)
	}
	return out
}

// PGU is a pulse generation unit: a fixed-function synthesizer with the
// paper's enforced 1000-cycle latency. Busy tracking belongs to the
// pipeline model; PGU itself is functional plus a latency constant.
//
// A PGU keeps the unit shapes it has rendered, keyed by sample count
// and drive axis, and the entry buffer Generate returns. Both belong to
// the PGU, not to the package: sweeps run many machines concurrently,
// each with its own PGU. A PGU is not safe for concurrent use.
type PGU struct {
	Params       Params
	LatencyCycle int64

	shapeParams Params  // the Params shapes were computed under
	shapes      []shape // unit shapes, at most one per (n, phase)
	entries     []Entry // Generate's output buffer
}

// NewPGU returns a PGU with default synthesis parameters and the paper's
// 1000-cycle latency (§7.1).
func NewPGU() *PGU { return &PGU{Params: DefaultParams(), LatencyCycle: 1000} }

// Generate synthesizes and packs the pulse for one gate instance.
// durationNs follows the gate-timing model (20 ns 1q / 40 ns 2q). The
// entries equal PackEntries(Synthesize(kind, theta, durationNs,
// p.Params)); they live in the PGU's buffer and stay valid until the
// next Generate call.
func (p *PGU) Generate(kind circuit.Kind, theta float64, durationNs float64) []Entry {
	s := p.shape(sampleCount(durationNs, p.Params), drivePhase(kind))
	scale := angleScale(theta, p.Params)
	m := entryCount(s.n)
	if cap(p.entries) < m {
		p.entries = make([]Entry, m)
	}
	out := p.entries[:m]
	clear(out)
	for k := 0; k < s.n; k++ {
		putSample(out, k, s.sample(k, scale))
	}
	return out
}

// shape returns the unit shape for (n, phase), computing it on first
// use. A change to Params drops every cached shape.
func (p *PGU) shape(n int, phase float64) *shape {
	if p.Params != p.shapeParams {
		p.shapes, p.shapeParams = p.shapes[:0], p.Params
	}
	// The phase is one of drivePhase's constants: an identity key, so
	// it is compared by its bits.
	for i := range p.shapes {
		if s := &p.shapes[i]; s.n == n && math.Float64bits(s.phase) == math.Float64bits(phase) {
			return s
		}
	}
	p.shapes = append(p.shapes, newShape(n, phase, p.Params))
	return &p.shapes[len(p.shapes)-1]
}
