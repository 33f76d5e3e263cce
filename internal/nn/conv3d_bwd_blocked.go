package nn

import (
	"repro/internal/tensor"
)

// Blocked backward-data kernel (§III-C: "The backward data operator ...
// optimized with a similar strategy by blocking the channels and using SIMD
// vectorization").
//
// For a stride-1, padding-p convolution, the gradient w.r.t. the input is
// itself a stride-1 convolution of the output gradient with the
// spatially-flipped, channel-transposed weights:
//
//	dX[ic] = Σ_oc  dY[oc] ⊛ flip(W[oc][ic])
//
// so the Algorithm-1 forward kernel is reused verbatim on a transposed
// weight pack (packFor). The pack is cached and refreshed with the same
// weight version counter as the forward pack.

// useBlockedBwdData reports whether the transposed-forward trick applies:
// stride 1 and "same" geometry (output extent equals input extent), which
// the CosmoFlow topology guarantees for its stride-1 layers (k=3, p=1).
func (c *Conv3D) useBlockedBwdData(inShape, outShape tensor.Shape) bool {
	if c.forceNaive || c.Stride != 1 {
		return false
	}
	if c.InC%tensor.BlockSize != 0 || c.OutC%tensor.BlockSize != 0 {
		return false
	}
	// The flipped-kernel identity needs symmetric padding: out == in,
	// which for stride 1 means 2·Pad == K-1.
	return 2*c.Pad == c.K-1 && inShape[1] == outShape[1] &&
		inShape[2] == outShape[2] && inShape[3] == outShape[3]
}

// backwardDataBlocked computes dx with the blocked forward kernel over the
// transposed-flipped weight pack.
func (c *Conv3D) backwardDataBlocked(dy *tensor.Tensor, inShape tensor.Shape) *tensor.Tensor {
	out := dy.Shape()
	od, oh, ow := out[1], out[2], out[3]
	p := c.Pad
	bs := tensor.BlockSize
	c.bwdPack = c.packFor(c.bwdPack, [3]int{od, oh, ow}, [3]int{inShape[1], inShape[2], inShape[3]}, true)
	pk := c.bwdPack
	ld, lh, lw := pk.live[0], pk.live[1], pk.live[2]

	src := tensor.ToBlocked(dy)
	dst := tensor.NewBlocked(c.InC, inShape[1], inShape[2], inShape[3])
	icb := dst.CB
	ocb := src.CB

	c.pool.ForEach(icb*inShape[1], 1, func(task int) {
		ib := task / inShape[1]
		z := task % inShape[1]
		acc := make([]float32, widthBlock*bs)
		for yy := 0; yy < inShape[2]; yy++ {
			for x0 := 0; x0 < inShape[3]; x0 += widthBlock {
				wb := widthBlock
				if x0+wb > inShape[3] {
					wb = inShape[3] - x0
				}
				for i := 0; i < wb*bs; i++ {
					acc[i] = 0
				}
				for ob := 0; ob < ocb; ob++ {
					for kd := ld.lo; kd < ld.hi; kd++ {
						zi := z + kd - p
						if zi < 0 || zi >= od {
							continue
						}
						for kh := lh.lo; kh < lh.hi; kh++ {
							yi := yy + kh - p
							if yi < 0 || yi >= oh {
								continue
							}
							srcRow := ((ob*od+zi)*oh + yi) * ow * bs
							for kw := lw.lo; kw < lw.hi; kw++ {
								wBlk := pk.block(ib, ob, kd, kh, kw)
								for j := 0; j < wb; j++ {
									xi := x0 + j + kw - p
									if xi < 0 || xi >= ow {
										continue
									}
									sRow := src.Data[srcRow+xi*bs : srcRow+xi*bs+bs]
									aRow := acc[j*bs : j*bs+bs]
									for oc := 0; oc < bs; oc++ {
										sv := sRow[oc]
										if sv == 0 {
											continue
										}
										wRow := wBlk[oc*bs : oc*bs+bs]
										for ic := 0; ic < bs; ic++ {
											aRow[ic] += wRow[ic] * sv
										}
									}
								}
							}
						}
					}
				}
				dstRow := ((ib*inShape[1]+z)*inShape[2] + yy) * inShape[3] * bs
				for j := 0; j < wb; j++ {
					copy(dst.Data[dstRow+(x0+j)*bs:dstRow+(x0+j)*bs+bs], acc[j*bs:j*bs+bs])
				}
			}
		}
	})
	return tensor.FromBlocked(dst)
}
