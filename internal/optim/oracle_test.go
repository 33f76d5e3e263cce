package optim

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// oracleAdamLARC is an independent float64 implementation of the §III-B
// update, written from the equations rather than from Step:
//
//	ηt = (η0 − ηmin)·(1 − t/T) + ηmin, t < T;  ηmin afterwards
//	η† = min(trust·‖w‖₂/‖g‖₂, 1), or min(fallback, 1) if a norm is zero
//	m  = β1·m + (1 − β1)·η†g;   v = β2·v + (1 − β2)·(η†g)²
//	w  = w − ηt·(m/(1 − β1ᵗ)) / (√(v/(1 − β2ᵗ)) + ε)
//
// Weights and moments are held in float64 throughout. mAbs runs the
// first-moment recurrence on |η†g|, the scale against which m's rounding
// error is measured (m itself can cancel towards zero).
type oracleAdamLARC struct {
	cfg       Config
	w, m, v   [][]float64
	mAbs      [][]float64
	lastRates []float64
	t         int
}

func newOracle(params []*nn.Param, cfg Config) *oracleAdamLARC {
	o := &oracleAdamLARC{cfg: cfg}
	for _, p := range params {
		w := make([]float64, p.NumElements())
		for j, x := range p.Value.Data() {
			w[j] = float64(x)
		}
		n := len(w)
		o.w = append(o.w, w)
		o.m = append(o.m, make([]float64, n))
		o.v = append(o.v, make([]float64, n))
		o.mAbs = append(o.mAbs, make([]float64, n))
	}
	o.lastRates = make([]float64, len(params))
	return o
}

func (o *oracleAdamLARC) step(grads [][]float64) {
	s := o.cfg.Schedule
	eta := s.EtaMin
	if o.t < s.DecaySteps {
		eta = (s.Eta0-s.EtaMin)*(1-float64(o.t)/float64(s.DecaySteps)) + s.EtaMin
	}
	o.t++
	b1, b2 := o.cfg.Beta1, o.cfg.Beta2
	for i, g := range grads {
		var ww, gg float64
		for j := range g {
			ww += o.w[i][j] * o.w[i][j]
			gg += g[j] * g[j]
		}
		rate := math.Min(o.cfg.FallbackLR, 1)
		if ww > 0 && gg > 0 {
			rate = math.Min(o.cfg.TrustCoef*math.Sqrt(ww)/math.Sqrt(gg), 1)
		}
		o.lastRates[i] = rate
		for j := range g {
			gs := rate * g[j]
			o.m[i][j] = b1*o.m[i][j] + (1-b1)*gs
			o.v[i][j] = b2*o.v[i][j] + (1-b2)*gs*gs
			o.mAbs[i][j] = b1*o.mAbs[i][j] + (1-b1)*math.Abs(gs)
			mHat := o.m[i][j] / (1 - math.Pow(b1, float64(o.t)))
			vHat := o.v[i][j] / (1 - math.Pow(b2, float64(o.t)))
			o.w[i][j] -= eta * mHat / (math.Sqrt(vHat) + o.cfg.Eps)
		}
	}
}

// TestAdamLARCMatchesFloat64Oracle runs AdamLARC against the float64
// oracle for 20 steps on 353 random parameters in five tensors: a weight
// matrix, a small-magnitude tensor, a zero-initialized bias (zero-norm
// fallback on step one, LARC rate afterwards), a tensor whose gradient is
// always zero (fallback every step, never moves), and a one-element
// tensor. The schedule decays over 12 steps, so both of its branches run.
//
// Tolerance. AdamLARC keeps w, m and v in float32, so every step rounds
// each of them once (unit roundoff u = 2⁻²⁴ ≈ 6.0e-8), and η†g is rounded
// once more before entering the moments. After k ≤ 20 steps the rounding
// errors of these contracting recurrences sum to at most about (k+2)·u
// relative to their scale, ≈ 1.3e-6; the LARC rate inherits the weights'
// relative error through ‖w‖₂. rtol = 1e-5 is that bound with a 7×
// margin. On top of it, β1 and β2 are float32 in the moment recurrences
// while the bias corrections use their float64 values, which shifts m
// and v by the constant relative offsets δ1 = |fl32(β1) − β1|/(1 − β1)
// ≈ 2.4e-7 and δ2 = |fl32(β2) − β2|/(1 − β2) ≈ 1.3e-5 (1 − β2 magnifies
// β2's representation error 1e3-fold). The update m̂/√v̂ inherits
// δ1 + δ2/2, and through the weights and ‖w‖₂ so do the LARC rate and
// the moments. One tolerance tol = rtol + δ1 + δ2 ≈ 2.3e-5 covers every
// compared quantity; a real defect such as a dropped bias correction or
// a missing clip is off by orders of magnitude more.
func TestAdamLARCMatchesFloat64Oracle(t *testing.T) {
	const (
		steps = 20
		rtol  = 1e-5
	)
	rng := rand.New(rand.NewSource(42))
	sizes := []int{240, 64, 32, 16, 1}
	initScale := []float64{0.3, 1e-3, 0, 0.5, 2}
	zeroGrad := 3
	var params []*nn.Param
	for i, n := range sizes {
		vals := make([]float32, n)
		for j := range vals {
			vals[j] = float32(rng.NormFloat64() * initScale[i])
		}
		params = append(params, &nn.Param{
			Name:  "p",
			Value: tensor.FromData(vals, n),
			Grad:  tensor.New(n),
		})
	}
	cfg := Config{Schedule: PolySchedule{Eta0: 2e-2, EtaMin: 1e-3, DecaySteps: 12}}
	opt := New(params, cfg)
	cfg.fillDefaults()
	oracle := newOracle(params, cfg)
	d1 := math.Abs(float64(float32(cfg.Beta1))-cfg.Beta1) / (1 - cfg.Beta1)
	d2 := math.Abs(float64(float32(cfg.Beta2))-cfg.Beta2) / (1 - cfg.Beta2)
	tol := rtol + d1 + d2

	for k := 0; k < steps; k++ {
		grads := make([][]float64, len(params))
		for i, p := range params {
			g := p.Grad.Data()
			grads[i] = make([]float64, len(g))
			if i == zeroGrad {
				continue // stays all-zero
			}
			gScale := math.Pow(10, -1-3*rng.Float64()) // 1e-4 .. 1e-1
			for j := range g {
				g[j] = float32(rng.NormFloat64() * gScale)
				grads[i][j] = float64(g[j])
			}
		}
		rates := opt.LocalRates()
		opt.Step()
		oracle.step(grads)

		for i, r := range rates {
			if math.Abs(r-oracle.lastRates[i]) > tol*oracle.lastRates[i] {
				t.Fatalf("step %d param %d: LARC rate %g, oracle %g", k, i, r, oracle.lastRates[i])
			}
		}
		state := opt.StateBuffers()
		for i, p := range params {
			w, m, v := p.Value.Data(), state[2*i], state[2*i+1]
			for j := range w {
				// A weight's error scales with its magnitude, or with the
				// distance it has moved when it started near zero.
				wScale := math.Max(math.Abs(oracle.w[i][j]), float64(k+1)*cfg.Schedule.Eta0)
				if d := math.Abs(float64(w[j]) - oracle.w[i][j]); d > tol*wScale {
					t.Fatalf("step %d param %d[%d]: w = %g, oracle %g (|Δ| %g > %g)",
						k, i, j, w[j], oracle.w[i][j], d, tol*wScale)
				}
				if d := math.Abs(float64(m[j]) - oracle.m[i][j]); d > tol*oracle.mAbs[i][j] {
					t.Fatalf("step %d param %d[%d]: m = %g, oracle %g", k, i, j, m[j], oracle.m[i][j])
				}
				if d := math.Abs(float64(v[j]) - oracle.v[i][j]); d > tol*oracle.v[i][j] {
					t.Fatalf("step %d param %d[%d]: v = %g, oracle %g", k, i, j, v[j], oracle.v[i][j])
				}
			}
		}
	}
	for j, x := range params[zeroGrad].Value.Data() {
		if float64(x) != oracle.w[zeroGrad][j] {
			t.Fatalf("zero-gradient tensor moved: [%d] = %g, started at %g", j, x, oracle.w[zeroGrad][j])
		}
	}
}

// TestLARCFallbackClip pins the one behavioural difference between the
// two LARC callers: AdamLARC clips its zero-norm fallback at 1 like any
// other rate, while SGDMomentum applies its Fallback unclipped.
func TestLARCFallbackClip(t *testing.T) {
	adamP := makeParam([]float32{0, 0}, []float32{1, 1})
	o := New([]*nn.Param{adamP}, Config{Schedule: DefaultSchedule(10), FallbackLR: 4})
	if r := o.LocalRates()[0]; r != 1 {
		t.Errorf("AdamLARC fallback rate = %g, want min(4, 1) = 1", r)
	}

	sgdP := sgdParam([]float32{0})
	sgdP.Grad.Data()[0] = 1
	s := NewSGDMomentum([]*nn.Param{sgdP}, 0.9, PolySchedule{Eta0: 0.1, EtaMin: 0.1, DecaySteps: 1}, 0.002)
	s.Fallback = 4
	s.Step()
	// v = −η·fallback·g = −0.1·4·1; w = 0 + v.
	if got := sgdP.Value.Data()[0]; math.Abs(float64(got)+0.4) > 1e-6 {
		t.Errorf("SGD step with unclipped fallback moved w to %g, want -0.4", got)
	}
}
