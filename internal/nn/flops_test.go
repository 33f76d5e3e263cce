package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// flops_test.go pins the analytic FwdFLOPs counts (the roofline's
// numerator) to brute-force loop-nest counts on small shapes: each test
// walks the layer's arithmetic the way the naive kernel would and tallies
// multiply-adds one by one, so an off-by-a-factor in the closed form (K²
// for K³, forgotten bias term, wrong output shape) cannot hide.

// TestConv3DFwdFLOPsBruteForce counts conv multiply-adds by walking the
// full loop nest over output voxels and kernel taps. The analytic count
// charges taps that land in the zero padding too — exactly what the dense
// im2col/GEMM formulation executes — so the brute force does the same.
func TestConv3DFwdFLOPsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		inC, outC, k, stride, pad int
		d, h, w                   int
	}{
		{1, 2, 3, 1, 1, 4, 4, 4},
		{2, 3, 3, 2, 1, 5, 5, 5},
		{3, 1, 1, 1, 0, 3, 4, 5},
	}
	for _, c := range cases {
		conv := NewConv3D("c", c.inC, c.outC, c.k, c.stride, c.pad, nil, rng)
		in := tensor.Shape{c.inC, c.d, c.h, c.w}
		od := (c.d+2*c.pad-c.k)/c.stride + 1
		oh := (c.h+2*c.pad-c.k)/c.stride + 1
		ow := (c.w+2*c.pad-c.k)/c.stride + 1

		var brute int64
		for oc := 0; oc < c.outC; oc++ {
			for v := 0; v < od*oh*ow; v++ {
				for ic := 0; ic < c.inC; ic++ {
					for tap := 0; tap < c.k*c.k*c.k; tap++ {
						brute += 2 // one multiply + one add
					}
				}
				brute++ // bias add
			}
		}
		if got := conv.FwdFLOPs(in); got != brute {
			t.Errorf("Conv3D%+v FwdFLOPs = %d, brute force = %d", c, got, brute)
		}
	}
}

// TestDenseFwdFLOPsBruteForce walks the matrix-vector product element by
// element.
func TestDenseFwdFLOPsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct{ in, out int }{{4, 3}, {7, 1}, {1, 5}} {
		d := NewDense("d", c.in, c.out, nil, rng)
		var brute int64
		for o := 0; o < c.out; o++ {
			for i := 0; i < c.in; i++ {
				brute += 2 // multiply + accumulate
			}
			brute++ // bias add
		}
		if got := d.FwdFLOPs(tensor.Shape{c.in}); got != brute {
			t.Errorf("Dense(%d→%d) FwdFLOPs = %d, brute force = %d", c.in, c.out, got, brute)
		}
	}
}

// TestAvgPool3DFwdFLOPsBruteForce counts one add per window element plus
// the final scale per output voxel.
func TestAvgPool3DFwdFLOPsBruteForce(t *testing.T) {
	for _, c := range []struct {
		k, stride   int
		ch, d, h, w int
	}{
		{2, 2, 2, 4, 4, 4},
		{3, 1, 1, 3, 4, 5},
	} {
		p := NewAvgPool3D("p", c.k, c.stride)
		in := tensor.Shape{c.ch, c.d, c.h, c.w}
		od := (c.d-c.k)/c.stride + 1
		oh := (c.h-c.k)/c.stride + 1
		ow := (c.w-c.k)/c.stride + 1

		var brute int64
		for ch := 0; ch < c.ch; ch++ {
			for v := 0; v < od*oh*ow; v++ {
				for tap := 0; tap < c.k*c.k*c.k; tap++ {
					brute++ // accumulate one window element
				}
				brute++ // scale by 1/K³
			}
		}
		if got := p.FwdFLOPs(in); got != brute {
			t.Errorf("AvgPool3D%+v FwdFLOPs = %d, brute force = %d", c, got, brute)
		}
	}
}

// TestElementwiseFwdFLOPs pins the per-element layers: LeakyReLU one
// compare-select per element, BatchNorm3D four passes over the data,
// Flatten free.
func TestElementwiseFwdFLOPs(t *testing.T) {
	in := tensor.Shape{2, 3, 4, 5}
	elems := int64(in.NumElements())

	var brute int64
	for i := int64(0); i < elems; i++ {
		brute++ // one compare-select
	}
	if got := NewLeakyReLU("a", 0.3).FwdFLOPs(in); got != brute {
		t.Errorf("LeakyReLU FwdFLOPs = %d, brute force = %d", got, brute)
	}

	// BatchNorm: mean pass, variance pass, normalize pass, scale-shift pass.
	brute = 0
	for pass := 0; pass < 4; pass++ {
		for i := int64(0); i < elems; i++ {
			brute++
		}
	}
	if got := NewBatchNorm3D("bn", 2).FwdFLOPs(in); got != brute {
		t.Errorf("BatchNorm3D FwdFLOPs = %d, brute force = %d", got, brute)
	}

	if got := NewFlatten("f").FwdFLOPs(in); got != 0 {
		t.Errorf("Flatten FwdFLOPs = %d, want 0", got)
	}
}

// TestPerLayerFLOPsMatchesLayers checks the network-level accounting used
// by GET /v1/roofline and cosmoflow-bench -area roofline: PerLayerFLOPs
// walks the layer stack threading output shapes, so every entry must equal
// its layer's own count at the shape that actually reaches it, and the
// entries must sum to TotalFLOPs' forward half.
func TestPerLayerFLOPsMatchesLayers(t *testing.T) {
	net, err := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	per := net.PerLayerFLOPs()
	if len(per) != len(net.Layers) {
		t.Fatalf("PerLayerFLOPs entries = %d, layers = %d", len(per), len(net.Layers))
	}
	shape := net.InputShape()
	var sum int64
	for i, l := range net.Layers {
		if per[i].Name != l.Name() {
			t.Errorf("entry %d name = %s, layer = %s", i, per[i].Name, l.Name())
		}
		if want := l.FwdFLOPs(shape); per[i].Fwd != want {
			t.Errorf("%s Fwd = %d, layer says %d at shape %v", per[i].Name, per[i].Fwd, want, shape)
		}
		sum += per[i].Fwd
		shape = l.OutputShape(shape)
	}
	fwd, _ := net.TotalFLOPs()
	if sum != fwd {
		t.Errorf("sum of per-layer Fwd = %d, TotalFLOPs fwd = %d", sum, fwd)
	}
}

// TestBackwardFLOPsSkipFirstDataPass pins the backward count to the passes
// Network.Backward runs: the first convolution computes no input gradient,
// so the totals drop exactly its backward-data multiply-adds,
// 2·K³·IC·OC·voxels = 2·27·1·2·8³ = 55296 at dim 8, base 2.
func TestBackwardFLOPsSkipFirstDataPass(t *testing.T) {
	net, err := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	shape := net.InputShape()
	var every int64
	for _, l := range net.Layers {
		every += l.BwdFLOPs(shape)
		shape = l.OutputShape(shape)
	}
	_, bwd := net.TotalFLOPs()
	if d := every - bwd; d != 55296 {
		t.Errorf("TotalFLOPs backward = %d, every layer's full backward = %d: difference %d, want 55296", bwd, every, d)
	}
	per := net.PerLayerFLOPs()
	var sum int64
	for _, lf := range per {
		sum += lf.Bwd
	}
	if sum != bwd {
		t.Errorf("sum of per-layer Bwd = %d, TotalFLOPs bwd = %d", sum, bwd)
	}
	conv1 := net.Layers[0].(*Conv3D)
	if want := conv1.BwdFLOPs(net.InputShape()) - 55296; per[0].Bwd != want {
		t.Errorf("conv1 Bwd = %d, want %d", per[0].Bwd, want)
	}
}

// bruteConvBackward extends the brute-force loop nest above into a float64
// oracle for Conv3D's backward pass: it walks every output voxel, input
// channel and kernel tap, skips taps that land in the padding, and
// accumulates each product into dW, dB and dX in float64. The mag* slices
// hold Σ|term| per element, the scale a rounding-error bound needs.
func bruteConvBackward(c *Conv3D, x, dy *tensor.Tensor) (dW, dB, dX, magW, magX []float64) {
	in, out := x.Shape(), dy.Shape()
	k, s, p := c.K, c.Stride, c.Pad
	xd, dyd, wd := x.Data(), dy.Data(), c.W.Value.Data()
	dW = make([]float64, c.W.Value.NumElements())
	magW = make([]float64, len(dW))
	dB = make([]float64, c.OutC)
	dX = make([]float64, x.NumElements())
	magX = make([]float64, len(dX))
	for oc := 0; oc < c.OutC; oc++ {
		for z := 0; z < out[1]; z++ {
			for yy := 0; yy < out[2]; yy++ {
				for xx := 0; xx < out[3]; xx++ {
					g := float64(dyd[((oc*out[1]+z)*out[2]+yy)*out[3]+xx])
					dB[oc] += g
					for ic := 0; ic < c.InC; ic++ {
						for kd := 0; kd < k; kd++ {
							for kh := 0; kh < k; kh++ {
								for kw := 0; kw < k; kw++ {
									zi, yi, xi := z*s+kd-p, yy*s+kh-p, xx*s+kw-p
									if zi < 0 || zi >= in[1] || yi < 0 || yi >= in[2] || xi < 0 || xi >= in[3] {
										continue
									}
									wi := (((oc*c.InC+ic)*k+kd)*k+kh)*k + kw
									xi = ((ic*in[1]+zi)*in[2]+yi)*in[3] + xi
									dW[wi] += g * float64(xd[xi])
									magW[wi] += math.Abs(g * float64(xd[xi]))
									dX[xi] += g * float64(wd[wi])
									magX[xi] += math.Abs(g * float64(wd[wi]))
								}
							}
						}
					}
				}
			}
		}
	}
	return dW, dB, dX, magW, magX
}

// bruteConvForward is the forward twin of bruteConvBackward: a float64
// oracle that walks every output voxel, input channel and kernel tap, skips
// taps that land in the padding, and sums the bias and each product in
// float64. mag holds |bias| + Σ|term| per output.
func bruteConvForward(c *Conv3D, x *tensor.Tensor) (y, mag []float64) {
	in, out := x.Shape(), c.OutputShape(x.Shape())
	k, s, p := c.K, c.Stride, c.Pad
	xd, wd, bd := x.Data(), c.W.Value.Data(), c.B.Value.Data()
	y = make([]float64, out.NumElements())
	mag = make([]float64, len(y))
	i := 0
	for oc := 0; oc < c.OutC; oc++ {
		for z := 0; z < out[1]; z++ {
			for yy := 0; yy < out[2]; yy++ {
				for xx := 0; xx < out[3]; xx++ {
					y[i], mag[i] = float64(bd[oc]), math.Abs(float64(bd[oc]))
					for ic := 0; ic < c.InC; ic++ {
						for kd := 0; kd < k; kd++ {
							for kh := 0; kh < k; kh++ {
								for kw := 0; kw < k; kw++ {
									zi, yi, xi := z*s+kd-p, yy*s+kh-p, xx*s+kw-p
									if zi < 0 || zi >= in[1] || yi < 0 || yi >= in[2] || xi < 0 || xi >= in[3] {
										continue
									}
									term := float64(wd[(((oc*c.InC+ic)*k+kd)*k+kh)*k+kw]) *
										float64(xd[((ic*in[1]+zi)*in[2]+yi)*in[3]+xi])
									y[i] += term
									mag[i] += math.Abs(term)
								}
							}
						}
					}
					i++
				}
			}
		}
	}
	return y, mag
}
