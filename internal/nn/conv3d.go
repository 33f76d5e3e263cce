package nn

import (
	"fmt"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Conv3D is a direct 3D convolution layer with bias, the computational core
// of the CosmoFlow network (§III-C). Two forward kernels are provided: a
// direct convolution over blocks of four output channels, and a
// channel-blocked kernel structured exactly like the paper's Algorithm 1
// (16-channel blocks over input and output, width-blocked inner loops) that
// is used automatically when the layer shape allows it. Backward runs generic weight and data kernels
// driven by per-tap valid-output ranges, or the blocked data kernel where
// the geometry allows it.
type Conv3D struct {
	InC, OutC  int
	K          int // cubic kernel extent
	Stride     int
	Pad        int
	W          *Param // [OC IC K K K]
	B          *Param // [OC]
	pool       *parallel.Pool
	forceNaive bool // test hook: disable the blocked kernel

	// cached between Forward and Backward
	x *tensor.Tensor

	// blocked-kernel weight packs of the live taps (packFor), rebuilt
	// lazily when the weight version or the geometry moves: the forward
	// pack, and the transposed-flipped one for backward-data
	fwdPack, bwdPack *convPack
	wVersion         uint64

	bwd convBackward // backward scratch, built on first use
}

// NewConv3D builds a convolution layer. Weights use He initialization from
// rng; biases start at zero. pool supplies intra-node threading (the
// OpenMP analogue); nil uses parallel.Default.
func NewConv3D(name string, inC, outC, k, stride, pad int, pool *parallel.Pool, rng *rand.Rand) *Conv3D {
	if pool == nil {
		pool = parallel.Default
	}
	c := &Conv3D{
		InC: inC, OutC: outC, K: k, Stride: stride, Pad: pad,
		W:    newParam(name+".W", outC, inC, k, k, k),
		B:    newParam(name+".B", outC),
		pool: pool,
	}
	heInit(c.W.Value, inC*k*k*k, rng)
	c.wVersion = 1
	return c
}

func (c *Conv3D) Name() string { return c.W.Name[:len(c.W.Name)-2] }

// Params returns the weight and bias parameters.
func (c *Conv3D) Params() []*Param { return []*Param{c.W, c.B} }

// ForceDirect disables the blocked Algorithm-1 kernels so the direct
// convolution runs instead; used by the kernel ablation benchmarks.
func (c *Conv3D) ForceDirect(v bool) { c.forceNaive = v }

// InvalidateWeights must be called after W.Value is mutated outside
// Backward/optimizer flow (e.g. direct writes in tests) so the blocked
// kernels' weight packs are rebuilt. The optimizer path calls it via the
// network's hook.
func (c *Conv3D) InvalidateWeights() { c.wVersion++ }

// OutputShape implements Layer.
func (c *Conv3D) OutputShape(in tensor.Shape) tensor.Shape {
	c.checkInput(in)
	od := convOutDim(in[1], c.K, c.Stride, c.Pad)
	oh := convOutDim(in[2], c.K, c.Stride, c.Pad)
	ow := convOutDim(in[3], c.K, c.Stride, c.Pad)
	return tensor.Shape{c.OutC, od, oh, ow}
}

func (c *Conv3D) checkInput(in tensor.Shape) {
	if len(in) != 4 || in[0] != c.InC {
		panic(fmt.Sprintf("nn: %s expects [C=%d D H W] input, got %v", c.Name(), c.InC, in))
	}
}

// FwdFLOPs counts 2·K³·IC·OC·outVoxels multiply-adds plus bias adds.
func (c *Conv3D) FwdFLOPs(in tensor.Shape) int64 {
	out := c.OutputShape(in)
	vox := int64(out[1]) * int64(out[2]) * int64(out[3])
	mac := 2 * int64(c.K*c.K*c.K) * int64(c.InC) * int64(c.OutC) * vox
	return mac + int64(c.OutC)*vox
}

// BwdFLOPs counts the backward-data plus backward-weights passes, each the
// same MAC volume as forward (§III-C).
func (c *Conv3D) BwdFLOPs(in tensor.Shape) int64 {
	out := c.OutputShape(in)
	vox := int64(out[1]) * int64(out[2]) * int64(out[3])
	mac := 2 * int64(c.K*c.K*c.K) * int64(c.InC) * int64(c.OutC) * vox
	return 2*mac + int64(c.OutC)*vox
}

// useBlocked reports whether the Algorithm-1 kernel applies: stride one and
// both channel counts multiples of the SIMD block, which the paper
// guarantees by construction for every layer after the first (§III-A).
func (c *Conv3D) useBlocked() bool {
	return !c.forceNaive && c.Stride == 1 &&
		c.InC%tensor.BlockSize == 0 && c.OutC%tensor.BlockSize == 0
}

// Forward implements Layer: the inference kernel, plus the input cache
// Backward reads.
func (c *Conv3D) Forward(x *tensor.Tensor) *tensor.Tensor {
	y := c.Infer(x)
	c.x = x
	return y
}

// ocBlock is the number of output channels the direct forward kernel
// computes together, the output-channel blocking of Algorithm 1 (§III-C):
// each input value it loads feeds ocBlock independent float64
// accumulators, and the ocBlock widened weights of a tap stay in registers
// across a row segment.
const ocBlock = 4

// rowSeg is the width of the output row segment whose accumulators the
// direct forward kernel keeps live at once (ocBlock·rowSeg float64s, 1 KiB).
const rowSeg = 32

// forwardDirect runs the direct convolution of every input xs[b] into
// ys[b], threaded over (sample, output-channel block, output depth) tasks.
// Each task writes a disjoint output range, and each output voxel's
// accumulation order does not depend on the task, so results are the same
// bit for bit at any batch size and worker count.
func (c *Conv3D) forwardDirect(xs, ys []*tensor.Tensor) {
	in, out := xs[0].Shape(), ys[0].Shape()
	od := out[1]
	blocks := (c.OutC + ocBlock - 1) / ocBlock
	tx := make([]span, c.K)
	for kw := range tx {
		tx[kw] = tapRange(kw, c.Stride, c.Pad, in[3], out[3])
	}
	c.pool.ForEach(len(xs)*blocks*od, 1, func(task int) {
		b, ob, z := task/(blocks*od), task/od%blocks, task%od
		c.directBlock(xs[b].Data(), ys[b].Data(), in, out, tx, ob*ocBlock, z)
	})
}

// directBlock computes output depth z of the output channels
// [oc0, oc0+ocBlock). Every voxel's accumulator starts at the channel's
// bias and receives w·x for each in-bounds tap in ascending (ic, kd, kh, kw)
// order, each product exact in float64, then rounds once to float32: the
// order of the original one-channel direct loop, so the outputs are the
// same bits. The taps run outside the voxels of a row segment, so each
// weight is widened once per row segment rather than once per voxel.
// Channels past OutC in a narrower last block alias the last channel and
// rewrite its values unchanged.
func (c *Conv3D) directBlock(xd, yd []float32, in, out tensor.Shape, tx []span, oc0, z int) {
	id, ih, iw := in[1], in[2], in[3]
	od, oh, ow := out[1], out[2], out[3]
	k, s, p := c.K, c.Stride, c.Pad
	n := c.InC * k * k * k
	wd, bd := c.W.Value.Data(), c.B.Value.Data()
	var w, y [ocBlock][]float32
	var bias [ocBlock]float64
	for j := range w {
		oc := min(oc0+j, c.OutC-1)
		w[j] = wd[oc*n:][:n]
		y[j] = yd[(oc*od+z)*oh*ow:][:oh*ow]
		bias[j] = float64(bd[oc])
	}
	var acc [ocBlock][rowSeg]float64
	kdLo, kdHi := kernelRange(z, s, p, k, id)
	for yy := 0; yy < oh; yy++ {
		khLo, khHi := kernelRange(yy, s, p, k, ih)
		for x0 := 0; x0 < ow; x0 += rowSeg {
			seg := min(ow-x0, rowSeg)
			for j := range acc {
				for i := range seg {
					acc[j][i] = bias[j]
				}
			}
			for ic := 0; ic < c.InC; ic++ {
				for kd := kdLo; kd < kdHi; kd++ {
					for kh := khLo; kh < khHi; kh++ {
						xRow := xd[((ic*id+z*s+kd-p)*ih+yy*s+kh-p)*iw:][:iw]
						t := ((ic*k+kd)*k + kh) * k
						for kw, r := range tx {
							lo, hi := max(r.lo, x0), min(r.hi, x0+seg)
							if lo >= hi {
								continue
							}
							tapAxpy(&acc, lo-x0, hi-x0, xRow, lo*s+kw-p, s,
								float64(w[0][t+kw]), float64(w[1][t+kw]), float64(w[2][t+kw]), float64(w[3][t+kw]))
						}
					}
				}
			}
			for j := range acc {
				yRow := y[j][yy*ow+x0:][:seg]
				for i := range yRow {
					yRow[i] = float32(acc[j][i])
				}
			}
		}
	}
}

// tapAxpy adds wj·x[xi + (i-lo)·s] to acc[j][i] for i in [lo, hi) and each
// channel j of the block: one tap's products over a row segment.
func tapAxpy(acc *[ocBlock][rowSeg]float64, lo, hi int, x []float32, xi, s int, w0, w1, w2, w3 float64) {
	for i := lo; i < hi; i++ {
		v := float64(x[xi])
		acc[0][i] += w0 * v
		acc[1][i] += w1 * v
		acc[2][i] += w2 * v
		acc[3][i] += w3 * v
		xi += s
	}
}

// kernelRange returns the kernel index interval [lo, hi) that keeps the
// input coordinate o*s + kk - p inside [0, extent).
func kernelRange(o, s, p, k, extent int) (lo, hi int) {
	lo = p - o*s
	if lo < 0 {
		lo = 0
	}
	hi = extent - o*s + p
	if hi > k {
		hi = k
	}
	return lo, hi
}

// Backward implements Layer, computing the backward-weights and
// backward-data operators (§III-C).
func (c *Conv3D) Backward(dy *tensor.Tensor) *tensor.Tensor {
	c.backwardParams(dy)
	in := c.x.Shape()
	if c.useBlockedBwdData(in, dy.Shape()) {
		return c.backwardDataBlocked(dy, in)
	}
	dx := tensor.New(in...)
	c.bwd.dy, c.bwd.dx = dy.Data(), dx.Data()
	c.pool.For(c.InC, 1, c.bwd.data)
	c.bwd.dy, c.bwd.dx = nil, nil
	return dx
}

// backwardParams accumulates the weight and bias gradients for the output
// gradient dy and computes no input gradient. Network.Backward calls it
// alone for the first layer, whose input gradient nothing reads.
func (c *Conv3D) backwardParams(dy *tensor.Tensor) {
	if c.x == nil {
		panic("nn: Conv3D.Backward called before Forward")
	}
	c.bwd.prepare(c, c.x.Shape(), dy.Shape())
	c.bwd.dy = dy.Data()
	c.pool.For(c.OutC, 1, c.bwd.weights)
	c.bwd.dy = nil
}

// span is a half-open index interval [lo, hi).
type span struct{ lo, hi int }

// convBackward is a Conv3D's backward scratch, allocated on the layer's
// first backward pass and reused by every later one. It holds the per-tap
// valid output ranges and the operands of the current call, so the worker
// functions handed to the pool are built once per layer, not per call.
type convBackward struct {
	// taps[a*K+t] is the output range along axis a (0 = depth, 1 = height,
	// 2 = width) whose input coordinate o*Stride + t - Pad is in bounds.
	taps    []span
	in, out [3]int    // spatial extents of the input and of dy
	dy, dx  []float32 // the current call's operands, nil between calls
	accs    []float64 // K accumulators per output channel, padded by accStride
	// weights and data are the pool loop bodies, bound to the layer once.
	weights, data func(lo, hi int)
}

// prepare fills the tap ranges and extents for one backward call.
func (b *convBackward) prepare(c *Conv3D, in, out tensor.Shape) {
	k := c.K
	if b.taps == nil {
		b.taps = make([]span, 3*k)
		b.accs = make([]float64, c.OutC*accStride(k))
		b.weights = c.weightGradChannels
		b.data = c.inputGradChannels
	}
	for a := 0; a < 3; a++ {
		b.in[a], b.out[a] = in[a+1], out[a+1]
		for t := 0; t < k; t++ {
			b.taps[a*k+t] = tapRange(t, c.Stride, c.Pad, in[a+1], out[a+1])
		}
	}
}

// accStride pads each output channel's K accumulators to whole 64-byte
// cache lines, so workers on neighbouring channels do not share a line.
func accStride(k int) int { return (k + 7) &^ 7 }

// tapRange returns the output interval whose input coordinate o*s + t - p
// lies inside [0, extent), clipped to [0, out). An empty interval has
// lo == hi.
func tapRange(t, s, p, extent, out int) span {
	var r span
	if d := p - t; d > 0 {
		r.lo = (d + s - 1) / s
	}
	if d := extent - 1 + p - t; d >= 0 {
		r.hi = d/s + 1
	}
	r.hi = min(r.hi, out)
	r.lo = min(r.lo, r.hi)
	return r
}

// weightGradChannels accumulates dW and dB for output channels [lo, hi).
// Each worker owns whole output channels, so no reduction is needed — the
// paper's "sufficiently many channel blocks" strategy (§III-C).
//
// Every tap (kd, kh, kw) has one float64 accumulator that receives its
// products in ascending (z, yy, xx) order over the tap's in-bounds outputs,
// then is rounded once into dW. Taps whose depth or height range is empty
// are skipped, and a tap with an empty width range adds +0; neither changes
// a gradient accumulated from zero.
func (c *Conv3D) weightGradChannels(lo, hi int) {
	b := &c.bwd
	k, s, p := c.K, c.Stride, c.Pad
	id, ih, iw := b.in[0], b.in[1], b.in[2]
	od, oh, ow := b.out[0], b.out[1], b.out[2]
	tz, ty, tx := b.taps[:k], b.taps[k:2*k], b.taps[2*k:]
	xd, dwd, dbd := c.x.Data(), c.W.Grad.Data(), c.B.Grad.Data()
	for oc := lo; oc < hi; oc++ {
		dyC := b.dy[oc*od*oh*ow : (oc+1)*od*oh*ow]
		var db float64
		for _, v := range dyC {
			db += float64(v)
		}
		dbd[oc] += float32(db)
		acc := b.accs[oc*accStride(k):][:k]
		for ic := 0; ic < c.InC; ic++ {
			xC := xd[ic*id*ih*iw : (ic+1)*id*ih*iw]
			dw := dwd[(oc*c.InC+ic)*k*k*k:]
			for kd, zr := range tz {
				if zr.lo == zr.hi {
					continue
				}
				for kh, yr := range ty {
					if yr.lo == yr.hi {
						continue
					}
					clear(acc)
					for z := zr.lo; z < zr.hi; z++ {
						zi := z*s + kd - p
						for yy := yr.lo; yy < yr.hi; yy++ {
							yi := yy*s + kh - p
							tapRow(acc, dyC[(z*oh+yy)*ow:][:ow], xC[(zi*ih+yi)*iw:][:iw], tx, s, p)
						}
					}
					wRow := dw[(kd*k+kh)*k:][:k]
					for kw, a := range acc {
						wRow[kw] += float32(a)
					}
				}
			}
		}
	}
}

// tapRow adds dy[xx]·x[xx*s+kw-p] to acc[kw] for every tap kw over its
// in-bounds outputs xx (the ranges tx), in ascending xx. Over the range all
// taps share, they advance together in groups of three: independent add
// chains fed by one dy load. Before and after that range each tap finishes
// alone.
func tapRow(acc []float64, dy, x []float32, tx []span, s, p int) {
	k := len(acc)
	a, e := tx[0].lo, tx[k-1].hi // lo and hi are non-increasing in kw
	if a >= e {
		for kw, r := range tx {
			acc[kw] = dotTap(acc[kw], dy, x, r.lo, r.hi, s, kw-p)
		}
		return
	}
	for kw, r := range tx {
		acc[kw] = dotTap(acc[kw], dy, x, r.lo, a, s, kw-p)
	}
	kw := 0
	for ; kw+3 <= k; kw += 3 {
		a0, a1, a2 := acc[kw], acc[kw+1], acc[kw+2]
		xi := a*s + kw - p
		for _, d := range dy[a:e] {
			dv := float64(d)
			a0 += dv * float64(x[xi])
			a1 += dv * float64(x[xi+1])
			a2 += dv * float64(x[xi+2])
			xi += s
		}
		acc[kw], acc[kw+1], acc[kw+2] = a0, a1, a2
	}
	for ; kw < k; kw++ {
		acc[kw] = dotTap(acc[kw], dy, x, a, e, s, kw-p)
	}
	for kw, r := range tx {
		acc[kw] = dotTap(acc[kw], dy, x, e, r.hi, s, kw-p)
	}
}

// dotTap returns acc plus dy[xx]·x[xx*s+off] summed over xx in [lo, hi),
// in ascending xx.
func dotTap(acc float64, dy, x []float32, lo, hi, s, off int) float64 {
	for xx := lo; xx < hi; xx++ {
		acc += float64(dy[xx]) * float64(x[xx*s+off])
	}
	return acc
}

// inputGradChannels computes dX for input channels [lo, hi), each owned by
// one worker. Every dX element receives its float32 adds in ascending
// (oc, z, yy, xx) order of the output voxel they come from: kw runs from
// K-1 down to 0 outside xx, and a larger kw meets a given dX element from a
// smaller xx. Zero output gradients are skipped. Each product is rounded to
// float32 once: the float64 product of two float32 values is exact, so
// float32(w·d) equals float32(float64(w)·float64(d)), and the explicit
// conversion keeps the compiler from fusing it into the add.
func (c *Conv3D) inputGradChannels(lo, hi int) {
	b := &c.bwd
	k, s, p := c.K, c.Stride, c.Pad
	id, ih, iw := b.in[0], b.in[1], b.in[2]
	od, oh, ow := b.out[0], b.out[1], b.out[2]
	tx := b.taps[2*k:]
	wd := c.W.Value.Data()
	for oc := 0; oc < c.OutC; oc++ {
		dyC := b.dy[oc*od*oh*ow : (oc+1)*od*oh*ow]
		for ic := lo; ic < hi; ic++ {
			dxC := b.dx[ic*id*ih*iw : (ic+1)*id*ih*iw]
			wC := wd[(oc*c.InC+ic)*k*k*k:]
			for z := 0; z < od; z++ {
				kdLo, kdHi := kernelRange(z, s, p, k, id)
				for kd := kdLo; kd < kdHi; kd++ {
					zi := z*s + kd - p
					for yy := 0; yy < oh; yy++ {
						khLo, khHi := kernelRange(yy, s, p, k, ih)
						dyRow := dyC[(z*oh+yy)*ow:][:ow]
						for kh := khLo; kh < khHi; kh++ {
							yi := yy*s + kh - p
							dxRow := dxC[(zi*ih+yi)*iw:][:iw]
							wRow := wC[(kd*k+kh)*k:][:k]
							for kw := k - 1; kw >= 0; kw-- {
								w, xi := wRow[kw], tx[kw].lo*s+kw-p
								for _, d := range dyRow[tx[kw].lo:tx[kw].hi] {
									if d != 0 {
										dxRow[xi] += float32(w * d)
									}
									xi += s
								}
							}
						}
					}
				}
			}
		}
	}
}
