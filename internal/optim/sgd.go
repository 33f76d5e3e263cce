package optim

import "repro/internal/nn"

// SGDMomentum is the classic momentum optimizer, optionally wrapped with
// the same LARC layer-wise rate control as the Adam path. LARS (You et al.
// 2017, which LARC refines — §III-B) was originally defined over momentum
// SGD, so this optimizer is the natural comparator for the repo's
// Adam+LARC ablations.
var _ Optimizer = (*SGDMomentum)(nil)
var _ Optimizer = (*AdamLARC)(nil)

type SGDMomentum struct {
	params    []*nn.Param
	velocity  [][]float32
	Momentum  float64
	Schedule  PolySchedule
	TrustCoef float64 // 0 disables LARC
	Fallback  float64
	step      int
}

// NewSGDMomentum builds the optimizer; momentum 0.9 and the paper's
// schedule defaults apply when zero values are passed.
func NewSGDMomentum(params []*nn.Param, momentum float64, schedule PolySchedule, trustCoef float64) *SGDMomentum {
	if momentum == 0 {
		momentum = 0.9
	}
	if schedule.Eta0 == 0 && schedule.EtaMin == 0 {
		schedule = DefaultSchedule(schedule.DecaySteps)
	}
	o := &SGDMomentum{
		params:    params,
		Momentum:  momentum,
		Schedule:  schedule,
		TrustCoef: trustCoef,
		Fallback:  6.25e-5,
	}
	o.velocity = make([][]float32, len(params))
	for i, p := range params {
		o.velocity[i] = make([]float32, p.NumElements())
	}
	return o
}

// StepCount returns the number of completed updates.
func (o *SGDMomentum) StepCount() int { return o.step }

// SetStepCount restores the schedule position, for checkpoint resume.
func (o *SGDMomentum) SetStepCount(n int) { o.step = n }

// StateBuffers returns the momentum velocity buffers in parameter order.
// The slices alias the live optimizer state — copying into them restores
// it, so a resumed run continues bit-identically instead of cold-starting
// momentum.
func (o *SGDMomentum) StateBuffers() [][]float32 {
	out := make([][]float32, len(o.velocity))
	copy(out, o.velocity)
	return out
}

// LR returns the learning rate the next Step will use.
func (o *SGDMomentum) LR() float64 { return o.Schedule.LR(o.step) }

// Step applies v ← μ·v − η·η†·g; w ← w + v per parameter.
func (o *SGDMomentum) Step() {
	eta := o.Schedule.LR(o.step)
	o.step++
	mu := float32(o.Momentum)
	for i, p := range o.params {
		g := p.Grad.Data()
		w := p.Value.Data()[:len(g)]
		scale := 1.0
		if o.TrustCoef > 0 {
			scale = larcScale(w, g, o.TrustCoef, o.Fallback)
		}
		k := float32(eta * scale)
		vel := o.velocity[i][:len(g)]
		for j := range g {
			vel[j] = mu*vel[j] - k*g[j]
			w[j] += vel[j]
		}
	}
}
