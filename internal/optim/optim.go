// Package optim implements the paper's training optimizer: Adam combined
// with Layer-wise Adaptive Rate Control (LARC) and a polynomial (power = 1)
// learning-rate decay schedule, exactly as specified in §III-B.
//
// For each layer l at step t with parameters v and gradient g:
//
//	ηt   = (η0 − ηmin)·(1 − t/tdecay) + ηmin
//	η*   = 0.002·‖v‖₂/‖g‖₂          (or 6.25e-5 when either norm is zero)
//	η†   = min(η*, 1)
//	g*   = η†·g
//	v    ← Adam(v, g*, ηt)           with β1 = 0.9, β2 = 0.999, ε = 1e-8
//
// LARC's clip keeps the effective per-layer rate from exceeding the nominal
// Adam rate, which is what stabilizes the very large effective batch sizes
// of the 2048- and 8192-node runs.
package optim

import (
	"fmt"
	"math"

	"repro/internal/nn"
)

// Optimizer is the update rule the training loop drives, plus the state
// surface checkpointing needs: StateBuffers exposes the optimizer's
// auxiliary per-parameter state (Adam moments, SGD momentum velocity) in a
// stable order as raw float32 slices, so a checkpoint can round-trip it
// and a resumed run continues bit-identically instead of cold-starting
// the accumulators; SetStepCount restores the schedule position.
type Optimizer interface {
	Step()
	StepCount() int
	SetStepCount(int)
	LR() float64
	StateBuffers() [][]float32
}

// PolySchedule is the paper's polynomial (power = 1, i.e. linear) decay from
// Eta0 to EtaMin over DecaySteps, constant at EtaMin afterwards.
type PolySchedule struct {
	Eta0       float64
	EtaMin     float64
	DecaySteps int
}

// DefaultSchedule returns the paper's η0 = 2e-3, ηmin = 1e-4 (§III-B) with
// the given decay horizon.
func DefaultSchedule(decaySteps int) PolySchedule {
	return PolySchedule{Eta0: 2e-3, EtaMin: 1e-4, DecaySteps: decaySteps}
}

// LR returns the global learning rate at step t.
func (s PolySchedule) LR(t int) float64 {
	if s.DecaySteps <= 0 || t >= s.DecaySteps {
		return s.EtaMin
	}
	frac := 1 - float64(t)/float64(s.DecaySteps)
	return (s.Eta0-s.EtaMin)*frac + s.EtaMin
}

// Config parameterizes the optimizer. Zero values select the paper's
// settings.
type Config struct {
	Beta1, Beta2 float64 // Adam moment decays (0.9, 0.999)
	Eps          float64 // Adam ε (1e-8)
	TrustCoef    float64 // LARC trust coefficient (0.002)
	FallbackLR   float64 // LARC zero-norm fallback (6.25e-5)
	Schedule     PolySchedule
	DisableLARC  bool // ablation switch: plain Adam with the schedule
}

func (c *Config) fillDefaults() {
	if c.Beta1 == 0 {
		c.Beta1 = 0.9
	}
	if c.Beta2 == 0 {
		c.Beta2 = 0.999
	}
	if c.Eps == 0 {
		c.Eps = 1e-8
	}
	if c.TrustCoef == 0 {
		c.TrustCoef = 0.002
	}
	if c.FallbackLR == 0 {
		c.FallbackLR = 6.25e-5
	}
	if c.Schedule.Eta0 == 0 && c.Schedule.EtaMin == 0 {
		c.Schedule = DefaultSchedule(0)
	}
}

// AdamLARC is the optimizer state over a fixed parameter list. Each nn.Param
// (one weight or bias tensor) is a "layer" for LARC's purposes.
type AdamLARC struct {
	cfg    Config
	params []*nn.Param
	m, v   [][]float32 // first and second Adam moments per parameter
	step   int
}

// New builds the optimizer for the given parameters.
func New(params []*nn.Param, cfg Config) *AdamLARC {
	cfg.fillDefaults()
	o := &AdamLARC{cfg: cfg, params: params}
	o.m = make([][]float32, len(params))
	o.v = make([][]float32, len(params))
	for i, p := range params {
		o.m[i] = make([]float32, p.NumElements())
		o.v[i] = make([]float32, p.NumElements())
	}
	return o
}

// StepCount returns the number of completed updates.
func (o *AdamLARC) StepCount() int { return o.step }

// SetStepCount restores the schedule/bias-correction position, for
// checkpoint resume.
func (o *AdamLARC) SetStepCount(n int) { o.step = n }

// LR returns the global learning rate that the next Step will use.
func (o *AdamLARC) LR() float64 { return o.cfg.Schedule.LR(o.step) }

// StateBuffers returns the Adam moments in parameter order, first moment
// then second per parameter: [m0, v0, m1, v1, ...]. The slices alias the
// live optimizer state — copying into them restores it.
func (o *AdamLARC) StateBuffers() [][]float32 {
	out := make([][]float32, 0, 2*len(o.params))
	for i := range o.params {
		out = append(out, o.m[i], o.v[i])
	}
	return out
}

// Step applies one update using each parameter's accumulated gradient:
// one LARC norm sweep, then one fused pass over the tensor's elements.
// Loop-invariant scalars stay outside the element loop; a float32
// conversion inside it writes only the low lane of an XMM register and
// so chains each element to the previous element's divide/sqrt. The
// per-element arithmetic must not change: saved checkpoints resume
// bit-identically only while it stays as TestStepMatchesReference pins.
func (o *AdamLARC) Step() {
	eta := o.cfg.Schedule.LR(o.step)
	o.step++
	t := float64(o.step)
	b1c := 1 - math.Pow(o.cfg.Beta1, t)
	b2c := 1 - math.Pow(o.cfg.Beta2, t)
	b1, b2 := float32(o.cfg.Beta1), float32(o.cfg.Beta2)
	eps := o.cfg.Eps

	for i, p := range o.params {
		g := p.Grad.Data()
		v := p.Value.Data()[:len(g)]
		scale := float32(o.scale(v, g))
		m, sv := o.m[i][:len(g)], o.v[i][:len(g)]
		for j, gj := range g {
			gs := scale * gj
			m[j] = b1*m[j] + (1-b1)*gs
			sv[j] = b2*sv[j] + (1-b2)*gs*gs
			mHat := float64(m[j]) / b1c
			vHat := float64(sv[j]) / b2c
			v[j] -= float32(eta * mHat / (math.Sqrt(vHat) + eps))
		}
	}
}

// scale returns the LARC rate η† applied to a parameter's gradient: 1
// when LARC is disabled, and clipped at 1 on the zero-norm fallback too.
func (o *AdamLARC) scale(v, g []float32) float64 {
	if o.cfg.DisableLARC {
		return 1
	}
	return larcScale(v, g, o.cfg.TrustCoef, math.Min(o.cfg.FallbackLR, 1))
}

// LocalRates reports each parameter's LARC scale η† for the current
// gradients without applying an update; used by tests and diagnostics.
func (o *AdamLARC) LocalRates() []float64 {
	out := make([]float64, len(o.params))
	for i, p := range o.params {
		out[i] = o.scale(p.Value.Data(), p.Grad.Data())
	}
	return out
}

// larcScale returns LARC's clipped local rate (§III-B)
// min(trust·‖w‖₂/‖g‖₂, 1), or fallback when either norm is zero. Both
// squared norms come from one sweep with float64 accumulators summed in
// index order, which is exactly what two tensor.Norm2 calls compute.
func larcScale(w, g []float32, trust, fallback float64) float64 {
	w = w[:len(g)]
	var ww, gg float64
	for j, gj := range g {
		ww += float64(w[j]) * float64(w[j])
		gg += float64(gj) * float64(gj)
	}
	wNorm, gNorm := math.Sqrt(ww), math.Sqrt(gg)
	if wNorm == 0 || gNorm == 0 {
		return fallback
	}
	return math.Min(trust*wNorm/gNorm, 1)
}

// String describes the optimizer configuration.
func (o *AdamLARC) String() string {
	return fmt.Sprintf("AdamLARC(β1=%g β2=%g ε=%g trust=%g η0=%g ηmin=%g decay=%d larc=%v)",
		o.cfg.Beta1, o.cfg.Beta2, o.cfg.Eps, o.cfg.TrustCoef,
		o.cfg.Schedule.Eta0, o.cfg.Schedule.EtaMin, o.cfg.Schedule.DecaySteps, !o.cfg.DisableLARC)
}
