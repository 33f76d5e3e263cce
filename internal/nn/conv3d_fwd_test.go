package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// referenceDirectForward is a frozen copy of the one-channel direct forward
// kernel the four-channel kernel replaced: one float64 add chain per output
// voxel, the kernel range recomputed per voxel. The live kernel must match
// it bit for bit.
func referenceDirectForward(c *Conv3D, x *tensor.Tensor) *tensor.Tensor {
	in := x.Shape()
	out := c.OutputShape(in)
	y := tensor.New(out...)
	xd, yd := x.Data(), y.Data()
	id, ih, iw := in[1], in[2], in[3]
	od, oh, ow := out[1], out[2], out[3]
	wd, bd := c.W.Value.Data(), c.B.Value.Data()
	k, s, p := c.K, c.Stride, c.Pad
	for oc := 0; oc < c.OutC; oc++ {
		for z := 0; z < od; z++ {
			kdLo, kdHi := kernelRange(z, s, p, k, id)
			for yy := 0; yy < oh; yy++ {
				khLo, khHi := kernelRange(yy, s, p, k, ih)
				for xx := 0; xx < ow; xx++ {
					kwLo, kwHi := kernelRange(xx, s, p, k, iw)
					acc := float64(bd[oc])
					for ic := 0; ic < c.InC; ic++ {
						wBase := (((oc*c.InC + ic) * k) * k) * k
						for kd := kdLo; kd < kdHi; kd++ {
							zi := z*s + kd - p
							for kh := khLo; kh < khHi; kh++ {
								yi := yy*s + kh - p
								xRow := ((ic*id+zi)*ih + yi) * iw
								wRow := wBase + (kd*k+kh)*k
								for kw := kwLo; kw < kwHi; kw++ {
									xi := xx*s + kw - p
									acc += float64(wd[wRow+kw]) * float64(xd[xRow+xi])
								}
							}
						}
					}
					yd[((oc*od+z)*oh+yy)*ow+xx] = float32(acc)
				}
			}
		}
	}
	return y
}

// fwdCases sweeps IC ∈ {1, 3, 8}, OC ∈ {1, 3, 4, 5, 8}, stride ∈ {1, 2},
// pad ∈ {0, 1}, K ∈ {1, 3, 5} and extents 1³, 2³ and 5×6×7, dropping
// geometries with no output. OC 1, 3 and 5 leave a narrower last channel
// block.
func fwdCases() []bwdCase {
	var cs []bwdCase
	for _, ic := range []int{1, 3, 8} {
		for _, oc := range []int{1, 3, 4, 5, 8} {
			for _, s := range []int{1, 2} {
				for _, p := range []int{0, 1} {
					for _, k := range []int{1, 3, 5} {
						for _, e := range [][3]int{{1, 1, 1}, {2, 2, 2}, {5, 6, 7}} {
							if e[0]+2*p < k {
								continue
							}
							cs = append(cs, bwdCase{ic, oc, k, s, p, e[0], e[1], e[2]})
						}
					}
				}
			}
		}
	}
	return cs
}

// fwdFixture builds a layer for tc with seeded weights and biases and n
// seeded inputs whose values are scaled by random powers of two across
// 2⁻¹⁵..2¹⁵. With cancel set, every weight is ±1 and a quarter of the
// inputs are ±2⁴⁰: big terms then cancel exactly in many sums, and whether
// a small term was added before or after such a cancellation (rounded to
// the big terms' ulp, or kept whole) shows in the float32 output, so any
// change in the order of the float64 adds changes the bits.
func fwdFixture(tc bwdCase, pool *parallel.Pool, n int, cancel bool) (*Conv3D, []*tensor.Tensor) {
	rng := rand.New(rand.NewSource(int64(17 + tc.k + 5*tc.d + 3*tc.outC)))
	c := NewConv3D("c", tc.inC, tc.outC, tc.k, tc.stride, tc.pad, pool, rng)
	c.B.Value.RandNormal(rng, 0, 1)
	if cancel {
		for i, v := range c.W.Value.Data() {
			c.W.Value.Data()[i] = float32(math.Copysign(1, float64(v)))
		}
	}
	xs := make([]*tensor.Tensor, n)
	for i := range xs {
		xs[i] = tensor.New(tc.inC, tc.d, tc.h, tc.w)
		xs[i].RandNormal(rng, 0, 1)
		for j, v := range xs[i].Data() {
			e := rng.Intn(31) - 15
			if cancel && rng.Intn(4) == 0 {
				v, e = float32(math.Copysign(1, float64(v))), 40
			}
			xs[i].Data()[j] = float32(math.Ldexp(float64(v), e))
		}
	}
	return c, xs
}

// TestConvForwardMatchesReference checks that Forward, Infer and
// InferBatch give outputs bit-equal to the frozen one-channel kernel for
// every geometry of the sweep at pool sizes 1, 2 and 4, on both fixtures.
func TestConvForwardMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		pool := parallel.NewPool(workers)
		for _, tc := range fwdCases() {
			for _, cancel := range []bool{false, true} {
				c, xs := fwdFixture(tc, pool, 3, cancel)
				net := &Network{Layers: []Layer{c}}
				batch := net.InferBatch(xs)
				for i, x := range xs {
					want := referenceDirectForward(c, x).Data()
					for _, got := range []struct {
						path string
						y    []float32
					}{
						{"Forward", c.Forward(x).Data()},
						{"Infer", c.Infer(x).Data()},
						{"InferBatch", batch[i].Data()},
					} {
						if j := firstBitDiff(got.y, want); j >= 0 {
							t.Errorf("workers=%d %v cancel=%v sample %d: %s y[%d] = %v, reference %v",
								workers, tc, cancel, i, got.path, j, got.y[j], want[j])
						}
					}
				}
			}
		}
		pool.Close()
	}
}

// TestConvForwardMatchesFloat64Oracle bounds the direct kernel's rounding
// error against the float64 brute-force oracle. Each output sums the bias
// and n = IC·K³ exact products in float64 and rounds once to float32, so
//
//	|got − want| ≤ 2⁻²⁴·|want| + n·2⁻⁵²·Σ|term|.
func TestConvForwardMatchesFloat64Oracle(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	const u32, u64 = 0x1p-24, 0x1p-53
	for _, tc := range fwdCases() {
		c, xs := fwdFixture(tc, pool, 1, false)
		got := c.Forward(xs[0]).Data()
		want, mag := bruteConvForward(c, xs[0])
		n := tc.inC*tc.k*tc.k*tc.k + 1
		for i, w := range want {
			if tol := u32*math.Abs(w) + float64(n)*2*u64*mag[i]; math.Abs(float64(got[i])-w) > tol {
				t.Errorf("%v: y[%d] = %v, oracle %v (tol %g)", tc, i, got[i], w, tol)
			}
		}
	}
}

// blockedPair builds two identical blocked-kernel layers.
func blockedPair(pool *parallel.Pool) (*Conv3D, *Conv3D) {
	mk := func() *Conv3D {
		c := NewConv3D("c", 16, 16, 3, 1, 1, pool, rand.New(rand.NewSource(5)))
		c.B.Value.RandNormal(rand.New(rand.NewSource(6)), 0, 1)
		return c
	}
	return mk(), mk()
}

// TestConvPackFollowsGeometry checks that a blocked layer called at a
// second input geometry repacks, holds only the taps that geometry reads,
// and matches a fresh layer bit for bit in forward and backward.
func TestConvPackFollowsGeometry(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	used, fresh := blockedPair(pool)
	rng := rand.New(rand.NewSource(7))
	big := tensor.New(16, 5, 4, 3)
	big.RandNormal(rng, 0, 1)
	used.Backward(used.Forward(big))
	if n := len(used.fwdPack.data); n != 16*16*27 {
		t.Errorf("5×4×3 forward pack holds %d weights, want all 27 taps (%d)", n, 16*16*27)
	}
	for _, e := range [][3]int{{1, 1, 1}, {2, 1, 3}} {
		x := tensor.New(16, e[0], e[1], e[2])
		x.RandNormal(rng, 0, 1)
		y, yFresh := used.Forward(x), fresh.Forward(x)
		if i := firstBitDiff(y.Data(), yFresh.Data()); i >= 0 {
			t.Errorf("%v: y[%d] = %v after repack, fresh layer %v", e, i, y.Data()[i], yFresh.Data()[i])
		}
		dx, dxFresh := used.Backward(y), fresh.Backward(y)
		if i := firstBitDiff(dx.Data(), dxFresh.Data()); i >= 0 {
			t.Errorf("%v: dx[%d] = %v after repack, fresh layer %v", e, i, dx.Data()[i], dxFresh.Data()[i])
		}
		taps := 1
		for _, d := range e {
			taps *= min(2*d-1, 3) // K=3, pad 1: only the centre tap reads a 1-voxel axis
		}
		for _, pk := range []*convPack{used.fwdPack, used.bwdPack} {
			if n := len(pk.data); n != 16*16*taps {
				t.Errorf("%v: pack holds %d weights, want %d live taps (%d)", e, n, taps, 16*16*taps)
			}
		}
	}
}

// TestClonePackSurvivesRepack checks that a clone keeps the pack it shares
// with its source when the source repacks, here for a smaller geometry
// whose pack would fit in the old buffer.
func TestClonePackSurvivesRepack(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	src, _ := blockedPair(pool)
	rng := rand.New(rand.NewSource(8))
	x := tensor.New(16, 4, 4, 4)
	x.RandNormal(rng, 0, 1)
	want := src.Infer(x).Data()
	clone := src.cloneFor(nil).(*Conv3D)
	shared := clone.fwdPack
	before := append([]float32(nil), shared.data...)

	small := tensor.New(16, 1, 1, 1)
	small.RandNormal(rng, 0, 1)
	src.InvalidateWeights()
	src.Infer(small)
	if src.fwdPack == shared {
		t.Fatal("source did not repack for the new geometry")
	}
	if i := firstBitDiff(shared.data, before); i >= 0 {
		t.Fatalf("shared pack changed at %d after the source repacked", i)
	}
	if i := firstBitDiff(clone.Infer(x).Data(), want); i >= 0 {
		t.Errorf("clone y[%d] differs after the source repacked", i)
	}
	if clone.fwdPack != shared {
		t.Error("clone repacked although its weights and geometry did not change")
	}
}

// BenchmarkConv3DForward times one Forward per CosmoFlow convolution at the
// training benchmark's shape (dim 16, base 4), sweeping the worker count.
// Each iteration invalidates the weights first, as every training step
// does after the optimizer update, so the time includes any weight repack
// the layer's kernel needs.
func BenchmarkConv3DForward(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		pool := parallel.NewPool(workers)
		net, err := BuildCosmoFlow(TopologyConfig{InputDim: 16, BaseChannels: 4, Seed: 1, Pool: pool})
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for i, l := range net.Layers {
			c, ok := l.(*Conv3D)
			if !ok {
				continue
			}
			x := tensor.New(net.ShapeAtLayer(i)...)
			x.RandNormal(rng, 0, 1)
			b.Run(fmt.Sprintf("%s/workers=%d", c.Name(), workers), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					c.InvalidateWeights()
					c.Forward(x)
				}
			})
		}
		pool.Close()
	}
}
