package nn

import (
	"repro/internal/tensor"
)

// widthBlock is the output-width blocking factor of the inner kernel. The
// paper blocks by 28 voxels so that 28×16 accumulators fill the 32 AVX512
// registers (Algorithm 1); we keep the same structure with remainder
// handling so any output width works.
const widthBlock = 28

// forwardBlocked is the Go port of the paper's Algorithm 1: direct forward
// convolution over 16-channel-blocked input, output and weight arrays, with
// the output width dimension blocked by 28 voxels and the three innermost
// loops (ow, oc, ic) fully regular so the compiler can keep them in
// registers. Threading is decomposed over the output voxel space with each
// goroutine writing to a disjoint block, as in §III-C.
func (c *Conv3D) forwardBlocked(x *tensor.Tensor) *tensor.Tensor {
	out := c.OutputShape(x.Shape())
	dst := tensor.NewBlocked(c.OutC, out[1], out[2], out[3])
	c.blockedSlabs([]*tensor.Blocked{tensor.ToBlocked(x)}, []*tensor.Blocked{dst})
	return tensor.FromBlocked(dst)
}

// blockedSlabs runs the Algorithm-1 kernel from every srcs[b] into dsts[b],
// one task per (output-channel block, depth) slab with the batch innermost.
func (c *Conv3D) blockedSlabs(srcs, dsts []*tensor.Blocked) {
	s, d := srcs[0], dsts[0]
	c.fwdPack = c.packFor(c.fwdPack, [3]int{s.D, s.H, s.W}, [3]int{d.D, d.H, d.W}, false)
	pk := c.fwdPack
	c.pool.For(d.CB*d.D, 1, func(lo, hi int) {
		acc := make([]float32, len(srcs)*widthBlock*tensor.BlockSize)
		for task := lo; task < hi; task++ {
			c.blockedSlab(pk, srcs, dsts, task, acc)
		}
	})
}

// convPack is a blocked weight pack holding only the taps live at one
// geometry: those whose tapRange is non-empty on all three axes. The
// stride-1 blocked kernels read no other tap, and at stride 1 an axis's
// live taps are contiguous. Clones share packs, so a pack is never written
// after it is built.
type convPack struct {
	version uint64  // the weight version the pack was built from
	in, out [3]int  // spatial extents of the kernel's input and output
	live    [3]span // live tap range per axis (depth, height, width)
	inner   int     // channel blocks on the summed side
	data    []float32
}

// block returns the 16×16 weight block of outer channel block ob, inner
// channel block ib and live tap (kd, kh, kw).
func (pk *convPack) block(ob, ib, kd, kh, kw int) []float32 {
	l := &pk.live
	t := ((ob*pk.inner+ib)*(l[0].hi-l[0].lo)+kd-l[0].lo)*(l[1].hi-l[1].lo) + kh - l[1].lo
	t = t*(l[2].hi-l[2].lo) + kw - l[2].lo
	bb := tensor.BlockSize * tensor.BlockSize
	return pk.data[t*bb:][:bb]
}

// packFor returns old if it was built from the current weights for a
// kernel reading input extents in into output extents out, and otherwise
// builds a new pack of the live taps. The forward pack is laid out
// [OC/16][IC/16][taps][16 ic][16 oc]. The transposed pack serves the
// backward-data kernel: the channel roles swap and the taps flip, so it is
// [IC/16][OC/16][taps][16 oc][16 ic] holding W[oc][ic][K-1-kd][K-1-kh][K-1-kw].
// Either is written front to back in one pass. useBlocked guarantees whole
// channel blocks.
func (c *Conv3D) packFor(old *convPack, in, out [3]int, transposed bool) *convPack {
	if old != nil && old.version == c.wVersion && old.in == in && old.out == out {
		return old
	}
	k := c.K
	pk := &convPack{version: c.wVersion, in: in, out: out}
	taps := 1
	for a := range pk.live {
		l := span{k, 0}
		for t := 0; t < k; t++ {
			if r := tapRange(t, 1, c.Pad, in[a], out[a]); r.lo < r.hi {
				l.lo, l.hi = min(l.lo, t), t+1
			}
		}
		l.lo = min(l.lo, l.hi)
		pk.live[a] = l
		taps *= l.hi - l.lo
	}
	outer, inner := c.OutC, c.InC
	if transposed {
		outer, inner = c.InC, c.OutC
	}
	bs := tensor.BlockSize
	pk.inner = inner / bs
	pk.data = make([]float32, outer*inner*taps)
	src, kkk := c.W.Value.Data(), k*k*k
	ld, lh, lw := pk.live[0], pk.live[1], pk.live[2]
	i := 0
	for ob := 0; ob < outer; ob += bs {
		for ib := 0; ib < inner; ib += bs {
			for kd := ld.lo; kd < ld.hi; kd++ {
				for kh := lh.lo; kh < lh.hi; kh++ {
					for kw := lw.lo; kw < lw.hi; kw++ {
						t := (kd*k+kh)*k + kw
						if transposed {
							t = kkk - 1 - t
						}
						for ii := ib; ii < ib+bs; ii++ {
							for oi := ob; oi < ob+bs; oi++ {
								oc, ic := oi, ii
								if transposed {
									oc, ic = ii, oi
								}
								pk.data[i] = src[(oc*c.InC+ic)*kkk+t]
								i++
							}
						}
					}
				}
			}
		}
	}
	return pk
}

// blockedSlab computes one (output-channel-block, depth) slab for a whole
// micro-batch, task = ob·od + z, with the batch looped inside the
// kernel-offset loops: each 16×16 weight block is fetched once per
// (kd, kh, kw) and applied to all B samples while it is cache-hot,
// amortizing the weight stream — the batch dimension the paper's MKL-DNN
// kernels block over. For a fixed sample the accumulator receives its
// additions in (ib, kd, kh, kw, j, ic, oc) order whatever the batch size,
// and the slab's accumulators are task-local with every element written,
// so scheduling tasks in any order over any worker count gives
// bit-identical results. Only the pack's live taps are visited; every
// other tap lands in the padding for every output. acc is caller-provided
// scratch of length >= B·widthBlock·BlockSize.
func (c *Conv3D) blockedSlab(pk *convPack, srcs, dsts []*tensor.Blocked, task int, acc []float32) {
	id, ih, iw := srcs[0].D, srcs[0].H, srcs[0].W
	od, oh, ow := dsts[0].D, dsts[0].H, dsts[0].W
	p := c.Pad
	bs := tensor.BlockSize
	ld, lh, lw := pk.live[0], pk.live[1], pk.live[2]
	bd := c.B.Value.Data()
	icb := srcs[0].CB
	B := len(srcs)
	stride := widthBlock * bs

	ob := task / od
	z := task % od
	for yy := 0; yy < oh; yy++ {
		for x0 := 0; x0 < ow; x0 += widthBlock {
			wb := widthBlock
			if x0+wb > ow {
				wb = ow - x0
			}
			// Initialize every sample's accumulators with the bias.
			for b := 0; b < B; b++ {
				a := acc[b*stride : b*stride+wb*bs]
				for j := 0; j < wb; j++ {
					for oc := 0; oc < bs; oc++ {
						a[j*bs+oc] = bd[ob*bs+oc]
					}
				}
			}
			for ib := 0; ib < icb; ib++ {
				for kd := ld.lo; kd < ld.hi; kd++ {
					zi := z + kd - p
					if zi < 0 || zi >= id {
						continue
					}
					for kh := lh.lo; kh < lh.hi; kh++ {
						yi := yy + kh - p
						if yi < 0 || yi >= ih {
							continue
						}
						srcRow := ((ib*id+zi)*ih + yi) * iw * bs
						for kw := lw.lo; kw < lw.hi; kw++ {
							wBlk := pk.block(ob, ib, kd, kh, kw)
							for b := 0; b < B; b++ {
								src := srcs[b].Data
								a := acc[b*stride:]
								for j := 0; j < wb; j++ {
									xi := x0 + j + kw - p
									if xi < 0 || xi >= iw {
										continue
									}
									sRow := src[srcRow+xi*bs : srcRow+xi*bs+bs]
									aRow := a[j*bs : j*bs+bs]
									// Inner 16×16 micro-kernel: the FMA
									// block Algorithm 1 JITs to AVX512.
									for ic := 0; ic < bs; ic++ {
										sv := sRow[ic]
										if sv == 0 {
											continue
										}
										wRow := wBlk[ic*bs : ic*bs+bs]
										for oc := 0; oc < bs; oc++ {
											aRow[oc] += wRow[oc] * sv
										}
									}
								}
							}
						}
					}
				}
			}
			// Flush every sample's accumulators to its blocked destination.
			dstRow := ((ob*od+z)*oh + yy) * ow * bs
			for b := 0; b < B; b++ {
				dst := dsts[b].Data
				a := acc[b*stride:]
				for j := 0; j < wb; j++ {
					copy(dst[dstRow+(x0+j)*bs:dstRow+(x0+j)*bs+bs], a[j*bs:j*bs+bs])
				}
			}
		}
	}
}
