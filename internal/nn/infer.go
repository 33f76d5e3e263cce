package nn

import (
	"math"
	"time"

	"repro/internal/tensor"
)

// inferrer is implemented by layers that provide an inference-only forward
// pass: numerically identical to Forward but caching nothing for Backward,
// so the serving hot path leaves no per-request state behind on the layer.
type inferrer interface {
	Infer(x *tensor.Tensor) *tensor.Tensor
}

// Infer runs a forward pass without caching activations for a subsequent
// Backward. It produces bit-identical outputs to Forward (mode-dependent
// layers behave as with SetTraining(false)) and is the entry point the
// serving replicas use. A single network still serves one Infer at a time;
// run concurrent inference on Clone replicas.
func (n *Network) Infer(x *tensor.Tensor) *tensor.Tensor {
	if n.trace != nil {
		return n.inferTraced(x)
	}
	for _, l := range n.Layers {
		x = inferLayer(l, x)
	}
	return x
}

// inferTraced is the timed twin of Infer's loop: each layer's wall time
// lands in its trace span, the whole pass in the forward span. Kept as a
// separate loop so the untraced path pays no clock reads.
func (n *Network) inferTraced(x *tensor.Tensor) *tensor.Tensor {
	tr := n.trace
	start := time.Now()
	last := start
	for i, l := range n.Layers {
		x = inferLayer(l, x)
		now := time.Now()
		tr.Layers[i].Observe(now.Sub(last))
		last = now
	}
	tr.Forward.Observe(last.Sub(start))
	return x
}

// inferLayer runs one layer's inference-only forward, falling back to
// Forward for layers without one.
func inferLayer(l Layer, x *tensor.Tensor) *tensor.Tensor {
	if inf, ok := l.(inferrer); ok {
		return inf.Infer(x)
	}
	return l.Forward(x)
}

// Infer implements inferrer: Forward minus the input cache.
func (c *Conv3D) Infer(x *tensor.Tensor) *tensor.Tensor {
	c.checkInput(x.Shape())
	if c.useBlocked() {
		return c.forwardBlocked(x)
	}
	y := tensor.New(c.OutputShape(x.Shape())...)
	c.forwardDirect([]*tensor.Tensor{x}, []*tensor.Tensor{y})
	return y
}

// Infer implements inferrer.
func (d *Dense) Infer(x *tensor.Tensor) *tensor.Tensor { return d.apply(x) }

// Infer implements inferrer.
func (l *LeakyReLU) Infer(x *tensor.Tensor) *tensor.Tensor { return l.apply(x) }

// Infer implements inferrer.
func (p *AvgPool3D) Infer(x *tensor.Tensor) *tensor.Tensor { return p.apply(x) }

// Infer implements inferrer. Reshape shares the input's backing data, so
// there is nothing to cache.
func (f *Flatten) Infer(x *tensor.Tensor) *tensor.Tensor {
	return x.Reshape(x.NumElements())
}

// Infer implements inferrer: normalization by the running statistics (the
// inference mode of SetTraining), with no xhat cache and no update of the
// running averages.
func (bn *BatchNorm3D) Infer(x *tensor.Tensor) *tensor.Tensor {
	s := x.Shape()
	if len(s) != 4 || s[0] != bn.C {
		panic("nn: BatchNorm3D input shape mismatch")
	}
	n := s[1] * s[2] * s[3]
	y := tensor.New(s...)
	xd, yd := x.Data(), y.Data()
	for c := 0; c < bn.C; c++ {
		bn.inferChannel(xd, yd, n, c)
	}
	return y
}

// inferChannel normalizes one channel by the running statistics, the unit of
// intra-batch decomposition. Same grouping as Forward's inference branch, so
// the results are bit-identical: h first, then g*h + b.
func (bn *BatchNorm3D) inferChannel(xd, yd []float32, n, c int) {
	gd, bd := bn.Gamma.Value.Data(), bn.Beta.Value.Data()
	mean := bn.runMean[c]
	inv := float32(1 / math.Sqrt(float64(bn.runVar[c])+float64(bn.Eps)))
	g, b := gd[c], bd[c]
	for i := c * n; i < (c+1)*n; i++ {
		h := (xd[i] - mean) * inv
		yd[i] = g*h + b
	}
}

// Infer implements inferrer: dropout is the identity at inference.
func (d *Dropout) Infer(x *tensor.Tensor) *tensor.Tensor { return x }
