package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// referenceConvBackward is a frozen copy of Conv3D.Backward as it stood
// before the tap-range kernels: bounds tests inside every loop, every tap
// walked. The live kernels must match it bit for bit.
func referenceConvBackward(c *Conv3D, dy *tensor.Tensor) *tensor.Tensor {
	x := c.x
	in := x.Shape()
	id, ih, iw := in[1], in[2], in[3]
	out := dy.Shape()
	od, oh, ow := out[1], out[2], out[3]
	k, s, p := c.K, c.Stride, c.Pad
	xd, dyd := x.Data(), dy.Data()
	wd := c.W.Value.Data()
	dwd, dbd := c.W.Grad.Data(), c.B.Grad.Data()

	c.pool.ForEach(c.OutC, 1, func(oc int) {
		var db float64
		for z := 0; z < od; z++ {
			for yy := 0; yy < oh; yy++ {
				for xx := 0; xx < ow; xx++ {
					db += float64(dyd[((oc*od+z)*oh+yy)*ow+xx])
				}
			}
		}
		dbd[oc] += float32(db)
		for ic := 0; ic < c.InC; ic++ {
			for kd := 0; kd < k; kd++ {
				for kh := 0; kh < k; kh++ {
					for kw := 0; kw < k; kw++ {
						var acc float64
						for z := 0; z < od; z++ {
							zi := z*s + kd - p
							if zi < 0 || zi >= id {
								continue
							}
							for yy := 0; yy < oh; yy++ {
								yi := yy*s + kh - p
								if yi < 0 || yi >= ih {
									continue
								}
								dyRow := ((oc*od+z)*oh + yy) * ow
								xRow := ((ic*id+zi)*ih + yi) * iw
								for xx := 0; xx < ow; xx++ {
									xi := xx*s + kw - p
									if xi < 0 || xi >= iw {
										continue
									}
									acc += float64(dyd[dyRow+xx]) * float64(xd[xRow+xi])
								}
							}
						}
						dwd[(((oc*c.InC+ic)*k+kd)*k+kh)*k+kw] += float32(acc)
					}
				}
			}
		}
	})

	if c.useBlockedBwdData(in, out) {
		return c.backwardDataBlocked(dy, in)
	}
	dx := tensor.New(in...)
	dxd := dx.Data()
	c.pool.ForEach(c.InC, 1, func(ic int) {
		for oc := 0; oc < c.OutC; oc++ {
			wBase := (oc*c.InC + ic) * k * k * k
			for z := 0; z < od; z++ {
				for kd := 0; kd < k; kd++ {
					zi := z*s + kd - p
					if zi < 0 || zi >= id {
						continue
					}
					for yy := 0; yy < oh; yy++ {
						for kh := 0; kh < k; kh++ {
							yi := yy*s + kh - p
							if yi < 0 || yi >= ih {
								continue
							}
							dyRow := ((oc*od+z)*oh + yy) * ow
							dxRow := ((ic*id+zi)*ih + yi) * iw
							wRow := wBase + (kd*k+kh)*k
							for xx := 0; xx < ow; xx++ {
								dyv := float64(dyd[dyRow+xx])
								if dyv == 0 {
									continue
								}
								for kw := 0; kw < k; kw++ {
									xi := xx*s + kw - p
									if xi < 0 || xi >= iw {
										continue
									}
									dxd[dxRow+xi] += float32(float64(wd[wRow+kw]) * dyv)
								}
							}
						}
					}
				}
			}
		}
	})
	return dx
}

// bwdCase is one convolution geometry of the exactness sweep.
type bwdCase struct {
	inC, outC, k, stride, pad int
	d, h, w                   int
}

func (c bwdCase) String() string {
	return fmt.Sprintf("ic%d_oc%d_k%d_s%d_p%d_%dx%dx%d", c.inC, c.outC, c.k, c.stride, c.pad, c.d, c.h, c.w)
}

// bwdCases sweeps IC ∈ {1, 3}, stride ∈ {1, 2}, pad ∈ {0, 1}, K ∈ {1, 3, 5}
// and extents 1³, 2³ and 5×6×7, dropping geometries with no output, plus
// one shape the blocked backward-data kernel serves.
func bwdCases() []bwdCase {
	var cs []bwdCase
	for _, ic := range []int{1, 3} {
		for _, s := range []int{1, 2} {
			for _, p := range []int{0, 1} {
				for _, k := range []int{1, 3, 5} {
					for _, e := range [][3]int{{1, 1, 1}, {2, 2, 2}, {5, 6, 7}} {
						if e[0]+2*p < k {
							continue
						}
						cs = append(cs, bwdCase{ic, 4, k, s, p, e[0], e[1], e[2]})
					}
				}
			}
		}
	}
	return append(cs, bwdCase{16, 16, 3, 1, 1, 4, 4, 4})
}

// bwdFixture builds a layer for tc with seeded weights, runs its forward
// pass on a seeded input, and returns a seeded output gradient in which
// every fifth element is an exact zero (the data kernel skips those). Input
// and gradient values are scaled by random powers of two across 2⁻¹⁵..2¹⁵,
// so float64 sums of their products round and any change in the order of
// the adds shows in the bits.
func bwdFixture(tc bwdCase, pool *parallel.Pool) (*Conv3D, *tensor.Tensor, *tensor.Tensor) {
	rng := rand.New(rand.NewSource(int64(31 + tc.k + 7*tc.d)))
	c := NewConv3D("c", tc.inC, tc.outC, tc.k, tc.stride, tc.pad, pool, rng)
	spread := func(t *tensor.Tensor) {
		t.RandNormal(rng, 0, 1)
		for i, v := range t.Data() {
			t.Data()[i] = float32(math.Ldexp(float64(v), rng.Intn(31)-15))
		}
	}
	x := tensor.New(tc.inC, tc.d, tc.h, tc.w)
	spread(x)
	c.Forward(x)
	dy := tensor.New(c.OutputShape(x.Shape())...)
	spread(dy)
	for i := 0; i < dy.NumElements(); i += 5 {
		dy.Data()[i] = 0
	}
	return c, x, dy
}

// firstBitDiff returns the first index where a and b differ in bits, or -1.
func firstBitDiff(a, b []float32) int {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return i
		}
	}
	return -1
}

// TestConvBackwardMatchesReference checks that the tap-range kernels give
// dW, dB and dX bit-equal to the frozen loops for every geometry of the
// sweep at pool sizes 1, 2 and 4.
func TestConvBackwardMatchesReference(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		pool := parallel.NewPool(workers)
		for _, tc := range bwdCases() {
			live, _, dy := bwdFixture(tc, pool)
			ref, _, _ := bwdFixture(tc, pool)
			dx := live.Backward(dy)
			dxRef := referenceConvBackward(ref, dy)
			for _, cmp := range []struct {
				name      string
				got, want []float32
			}{
				{"dW", live.W.Grad.Data(), ref.W.Grad.Data()},
				{"dB", live.B.Grad.Data(), ref.B.Grad.Data()},
				{"dX", dx.Data(), dxRef.Data()},
			} {
				if i := firstBitDiff(cmp.got, cmp.want); i >= 0 {
					t.Errorf("workers=%d %v: %s[%d] = %v, reference %v",
						workers, tc, cmp.name, i, cmp.got[i], cmp.want[i])
				}
			}
		}
		pool.Close()
	}
}

// TestConvBackwardSkipsZeroGradients pins the data kernel's zero skip,
// the one place it is visible: an infinite weight times a zero output
// gradient is NaN, which the skip keeps out of dX as the frozen loops did.
func TestConvBackwardSkipsZeroGradients(t *testing.T) {
	pool := parallel.NewPool(1)
	defer pool.Close()
	tc := bwdCase{3, 4, 3, 1, 1, 5, 6, 7}
	live, _, dy := bwdFixture(tc, pool)
	ref, _, _ := bwdFixture(tc, pool)
	live.W.Value.Data()[13] = float32(math.Inf(1))
	ref.W.Value.Data()[13] = float32(math.Inf(1))
	dx, dxRef := live.Backward(dy), referenceConvBackward(ref, dy)
	if i := firstBitDiff(dx.Data(), dxRef.Data()); i >= 0 {
		t.Errorf("dX[%d] = %v, reference %v", i, dx.Data()[i], dxRef.Data()[i])
	}
}

// TestConvBackwardMatchesFloat64Oracle bounds the kernels' rounding error
// against the float64 brute-force oracle. dW and dB accumulate n terms in
// float64 and round once, so each may differ from the oracle by half an ulp
// of float32 plus the summation error of both float64 sums:
//
//	|got − want| ≤ 2⁻²⁴·|want| + n·2⁻⁵²·Σ|term|.
//
// dX accumulates n rounded float32 products in float32, whose standard
// worst-case bound is |got − want| ≤ γ(n+1)·Σ|term| with γ(m) = m·u/(1−m·u)
// and u = 2⁻²⁴.
func TestConvBackwardMatchesFloat64Oracle(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	const u32, u64 = 0x1p-24, 0x1p-53
	gamma := func(m int) float64 { return float64(m) * u32 / (1 - float64(m)*u32) }
	for _, tc := range bwdCases() {
		c, x, dy := bwdFixture(tc, pool)
		if c.useBlockedBwdData(x.Shape(), dy.Shape()) {
			continue // the blocked kernel has its own tests
		}
		dx := c.Backward(dy)
		dW, dB, dX, magW, magX := bruteConvBackward(c, x, dy)
		nW := dy.NumElements() / tc.outC
		for i, want := range dW {
			got := float64(c.W.Grad.Data()[i])
			if tol := u32*math.Abs(want) + float64(nW)*2*u64*magW[i]; math.Abs(got-want) > tol {
				t.Errorf("%v: dW[%d] = %v, oracle %v (tol %g)", tc, i, got, want, tol)
			}
		}
		for oc, want := range dB {
			got := float64(c.B.Grad.Data()[oc])
			var magB float64
			for _, v := range dy.Data()[oc*nW : (oc+1)*nW] {
				magB += math.Abs(float64(v))
			}
			if tol := u32*math.Abs(want) + float64(nW)*2*u64*magB; math.Abs(got-want) > tol {
				t.Errorf("%v: dB[%d] = %v, oracle %v (tol %g)", tc, oc, got, want, tol)
			}
		}
		nX := tc.outC * tc.k * tc.k * tc.k
		for i, want := range dX {
			got := float64(dx.Data()[i])
			if tol := gamma(nX+1) * magX[i]; math.Abs(got-want) > tol {
				t.Errorf("%v: dX[%d] = %v, oracle %v (tol %g)", tc, i, got, want, tol)
			}
		}
	}
}

// TestConvBackwardAccumulates checks that Backward adds into Grad (+=)
// rather than overwriting it: a second pass over the same gradient doubles
// every dW and dB exactly, on both the generic and the 1³ geometries.
func TestConvBackwardAccumulates(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	for _, tc := range []bwdCase{
		{3, 4, 3, 1, 1, 5, 6, 7},
		{3, 4, 3, 2, 1, 1, 1, 1},
	} {
		c, _, dy := bwdFixture(tc, pool)
		c.Backward(dy)
		dW := append([]float32(nil), c.W.Grad.Data()...)
		dB := append([]float32(nil), c.B.Grad.Data()...)
		c.Backward(dy)
		for _, cmp := range []struct {
			name       string
			got, first []float32
		}{{"dW", c.W.Grad.Data(), dW}, {"dB", c.B.Grad.Data(), dB}} {
			for i, v := range cmp.got {
				if v != 2*cmp.first[i] {
					t.Fatalf("%v: %s[%d] = %v after two passes, want %v", tc, cmp.name, i, v, 2*cmp.first[i])
				}
			}
		}
	}
}

// smallCosmoFlow builds a seeded dim-8, base-2 network and runs one forward
// pass, returning it with the loss gradient.
func smallCosmoFlow(t *testing.T, pool *parallel.Pool) (*Network, *tensor.Tensor) {
	t.Helper()
	net, err := BuildCosmoFlow(TopologyConfig{InputDim: 8, BaseChannels: 2, Seed: 3, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	x := tensor.New(net.InputShape()...)
	x.RandNormal(rng, 0, 1)
	_, dy := MSELoss(net.Forward(x), []float32{0.3, -0.2, 0.5})
	return net, dy
}

// TestNetworkBackwardMatchesLayerChain checks that Network.Backward, which
// computes no input gradient for the first layer, leaves every parameter
// gradient bit-equal to chaining each layer's full Backward by hand.
func TestNetworkBackwardMatchesLayerChain(t *testing.T) {
	pool := parallel.NewPool(2)
	defer pool.Close()
	net, dy := smallCosmoFlow(t, pool)
	chain, dyChain := smallCosmoFlow(t, pool)
	net.Backward(dy)
	for i := len(chain.Layers) - 1; i >= 0; i-- {
		dyChain = chain.Layers[i].Backward(dyChain)
	}
	got, want := net.Params(), chain.Params()
	for i := range got {
		if j := firstBitDiff(got[i].Grad.Data(), want[i].Grad.Data()); j >= 0 {
			t.Errorf("%s grad[%d] = %v, layer chain %v", got[i].Name, j,
				got[i].Grad.Data()[j], want[i].Grad.Data()[j])
		}
	}
}

// TestBackwardHookFiresPerLayerInOrder checks that the hook sees every
// layer exactly once, last to first, the first layer included.
func TestBackwardHookFiresPerLayerInOrder(t *testing.T) {
	pool := parallel.NewPool(1)
	defer pool.Close()
	net, dy := smallCosmoFlow(t, pool)
	var seen []Layer
	net.BackwardWithHook(dy, func(l Layer) { seen = append(seen, l) })
	if len(seen) != len(net.Layers) {
		t.Fatalf("hook fired %d times for %d layers", len(seen), len(net.Layers))
	}
	for i, l := range seen {
		if want := net.Layers[len(net.Layers)-1-i]; l != want {
			t.Errorf("hook call %d saw %s, want %s", i, l.Name(), want.Name())
		}
	}
}

// BenchmarkConv3DBackward times one Backward per CosmoFlow convolution at
// the training benchmark's shape (dim 16, base 4), sweeping the worker
// count. Each iteration invalidates the weights first, as every training
// step does, so conv6's time includes the backward-data weight repack. The
// generic layers allocate only the returned dX tensor; conv6 is served by
// the blocked backward-data kernel, which also allocates its blocked
// copies and its pack.
func BenchmarkConv3DBackward(b *testing.B) {
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
			dy := tensor.New(c.OutputShape(x.Shape())...)
			dy.RandNormal(rng, 0, 1)
			b.Run(fmt.Sprintf("%s/workers=%d", c.Name(), workers), func(b *testing.B) {
				c.Forward(x)
				b.ReportAllocs()
				for b.Loop() {
					c.InvalidateWeights()
					c.Backward(dy)
				}
			})
		}
		pool.Close()
	}
}
