package optim

import (
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// referenceAdamStep is AdamLARC.Step as it stood before the fused rewrite,
// frozen verbatim: two tensor.Norm2 sweeps and every scalar converted
// inside the element loop. The fused Step must reproduce it bit for bit.
func referenceAdamStep(o *AdamLARC) {
	eta := o.cfg.Schedule.LR(o.step)
	o.step++
	t := float64(o.step)
	b1c := 1 - math.Pow(o.cfg.Beta1, t)
	b2c := 1 - math.Pow(o.cfg.Beta2, t)

	for i, p := range o.params {
		g := p.Grad.Data()
		v := p.Value.Data()

		// LARC local rate and clip (§III-B).
		scale := 1.0
		if !o.cfg.DisableLARC {
			vNorm := tensor.Norm2(v)
			gNorm := tensor.Norm2(g)
			var local float64
			if vNorm != 0 && gNorm != 0 {
				local = o.cfg.TrustCoef * vNorm / gNorm
			} else {
				local = o.cfg.FallbackLR
			}
			scale = math.Min(local, 1)
		}

		m, sv := o.m[i], o.v[i]
		b1, b2 := float32(o.cfg.Beta1), float32(o.cfg.Beta2)
		for j := range g {
			gs := float32(scale) * g[j]
			m[j] = b1*m[j] + (1-b1)*gs
			sv[j] = b2*sv[j] + (1-b2)*gs*gs
			mHat := float64(m[j]) / b1c
			vHat := float64(sv[j]) / b2c
			v[j] -= float32(eta * mHat / (math.Sqrt(vHat) + o.cfg.Eps))
		}
	}
}

// referenceSGDStep is SGDMomentum.Step as it stood before the shared LARC
// helper, frozen verbatim.
func referenceSGDStep(o *SGDMomentum) {
	eta := o.Schedule.LR(o.step)
	o.step++
	for i, p := range o.params {
		g := p.Grad.Data()
		w := p.Value.Data()
		scale := 1.0
		if o.TrustCoef > 0 {
			wNorm := tensor.Norm2(w)
			gNorm := tensor.Norm2(g)
			if wNorm != 0 && gNorm != 0 {
				scale = math.Min(o.TrustCoef*wNorm/gNorm, 1)
			} else {
				scale = o.Fallback
			}
		}
		mu := float32(o.Momentum)
		k := float32(eta * scale)
		vel := o.velocity[i]
		for j := range g {
			vel[j] = mu*vel[j] - k*g[j]
			w[j] += vel[j]
		}
	}
}

// TestStepMatchesReference drives the live optimizers and their frozen
// references through 50 steps of identical seeded gradients on the
// dim-16/base-4 CosmoFlow parameter set, whose zero-initialized biases
// exercise LARC's zero-norm fallback on the first step. Values and every
// state buffer must stay bit-equal, which is what keeps resumed
// checkpoints and the cross-transport equivalence tests exact.
func TestStepMatchesReference(t *testing.T) {
	const steps = 50
	sched := PolySchedule{Eta0: 2e-3, EtaMin: 1e-4, DecaySteps: 40}
	cases := []struct {
		name string
		opt  func([]*nn.Param) Optimizer
		ref  func(Optimizer)
	}{
		{"adam-larc",
			func(ps []*nn.Param) Optimizer { return New(ps, Config{Schedule: sched}) },
			func(o Optimizer) { referenceAdamStep(o.(*AdamLARC)) }},
		{"adam-nolarc",
			func(ps []*nn.Param) Optimizer { return New(ps, Config{Schedule: sched, DisableLARC: true}) },
			func(o Optimizer) { referenceAdamStep(o.(*AdamLARC)) }},
		{"sgd-larc",
			func(ps []*nn.Param) Optimizer { return NewSGDMomentum(ps, 0.9, sched, 0.002) },
			func(o Optimizer) { referenceSGDStep(o.(*SGDMomentum)) }},
		{"sgd-plain",
			func(ps []*nn.Param) Optimizer { return NewSGDMomentum(ps, 0.9, sched, 0) },
			func(o Optimizer) { referenceSGDStep(o.(*SGDMomentum)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			live, frozen := cosmoFlowParams(t, 5), cosmoFlowParams(t, 5)
			if n := numParams(live); n != 301323 {
				t.Fatalf("dim-16/base-4 parameter count %d, want 301323", n)
			}
			optLive, optRef := tc.opt(live), tc.opt(frozen)
			for k := 0; k < steps; k++ {
				seedGrads(live, int64(100+k))
				for i, p := range live {
					copy(frozen[i].Grad.Data(), p.Grad.Data())
				}
				optLive.Step()
				tc.ref(optRef)
				if optLive.StepCount() != optRef.StepCount() {
					t.Fatalf("step %d: step count %d vs reference %d", k, optLive.StepCount(), optRef.StepCount())
				}
				for i, p := range live {
					bitEqual(t, k, p.Name, p.Value.Data(), frozen[i].Value.Data())
				}
				refBufs := optRef.StateBuffers()
				for b, buf := range optLive.StateBuffers() {
					bitEqual(t, k, "state buffer", buf, refBufs[b])
				}
			}
		})
	}
}

func bitEqual(t *testing.T, step int, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("step %d: %s length %d vs reference %d", step, what, len(got), len(want))
	}
	for j := range got {
		if math.Float32bits(got[j]) != math.Float32bits(want[j]) {
			t.Fatalf("step %d: %s[%d] = %v vs reference %v (not bit-identical)",
				step, what, j, got[j], want[j])
		}
	}
}
