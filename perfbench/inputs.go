package main

import (
	"math/rand"

	"repro/internal/cosmo"
)

// stratifiedSamples draws n synthetic volumes of edge dim from rng. Each
// target parameter is stratified over [0, 1): every interval [k/n, (k+1)/n)
// holds exactly one target value, at its centre, in a seeded order. Seeds
// then differ in the volumes' noise and in how targets pair and order, not
// in how spread out the targets are, which keeps losses comparable from
// seed to seed.
func stratifiedSamples(rng *rand.Rand, n, dim int) []*cosmo.Sample {
	var strata [3][]int
	for k := range strata {
		strata[k] = rng.Perm(n)
	}
	out := make([]*cosmo.Sample, n)
	for i := range out {
		var target [3]float32
		for k := range target {
			target[k] = (float32(strata[k][i]) + 0.5) / float32(n)
		}
		out[i] = cosmo.SyntheticSample(dim, target, rng.Int63())
	}
	return out
}
