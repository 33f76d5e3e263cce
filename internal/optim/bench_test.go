package optim

import (
	"math/rand"
	"testing"

	"repro/internal/nn"
)

// cosmoFlowParams returns the parameters of the dim-16/base-4 CosmoFlow
// network (301,323 values across its weight and bias tensors) with
// gradients drawn from a seeded normal distribution.
func cosmoFlowParams(tb testing.TB, seed int64) []*nn.Param {
	tb.Helper()
	net, err := nn.BuildCosmoFlow(nn.TopologyConfig{InputDim: 16, BaseChannels: 4, Seed: seed})
	if err != nil {
		tb.Fatal(err)
	}
	params := net.Params()
	seedGrads(params, seed)
	return params
}

// seedGrads overwrites every gradient with deterministic N(0, 0.01²) draws.
func seedGrads(params []*nn.Param, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, p := range params {
		g := p.Grad.Data()
		for i := range g {
			g[i] = float32(rng.NormFloat64()) * 1e-2
		}
	}
}

func numParams(params []*nn.Param) int {
	n := 0
	for _, p := range params {
		n += p.NumElements()
	}
	return n
}

// benchStep times one optimizer update over the full parameter set and
// reports the per-parameter cost next to the per-step one.
func benchStep(b *testing.B, params []*nn.Param, opt Optimizer) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(numParams(params)), "ns/param")
}

func BenchmarkAdamLARCStep(b *testing.B) {
	params := cosmoFlowParams(b, 1)
	benchStep(b, params, New(params, Config{Schedule: DefaultSchedule(1000)}))
}

func BenchmarkSGDMomentumStep(b *testing.B) {
	params := cosmoFlowParams(b, 1)
	benchStep(b, params, NewSGDMomentum(params, 0.9, DefaultSchedule(1000), 0.002))
}
