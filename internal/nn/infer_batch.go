package nn

import (
	"fmt"
	"time"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Batched inference: the serving counterpart of the paper's batched,
// blocked MKL-DNN kernels (§III-C). Infer processes one sample per forward
// pass (the paper's per-rank batch size); InferBatch gives the hot path a
// real batch dimension, scheduling one (sample × task) index space per
// layer through internal/parallel so a micro-batch of B volumes runs as a
// single forward instead of B. Every kernel keeps the training path's
// decomposition rule — each task owns a disjoint output range and each
// output element's accumulation order is unchanged — so batched outputs are
// bit-identical to the sequential per-sample path, preserving the serving
// replica bit-identity contract.

// batchCtx carries the shared state of one batched forward pass: the worker
// pool intra-batch tasks are scheduled on, and the buffer pool activation
// and blocked-layout scratch recycle through across layers and calls.
type batchCtx struct {
	pool *parallel.Pool
	buf  *tensor.BufPool
}

// alloc returns a tensor over a recycled, UNINITIALIZED buffer. Every
// batched kernel stores (never accumulates) into all elements of its
// output, so no clearing is needed.
func (ctx *batchCtx) alloc(shape ...int) *tensor.Tensor {
	return tensor.FromData(ctx.buf.Get(tensor.Shape(shape).NumElements()), shape...)
}

// batchInferrer is implemented by layers with a batch-aware inference
// kernel: one call processes the whole micro-batch.
type batchInferrer interface {
	inferBatch(xs []*tensor.Tensor, ctx *batchCtx) []*tensor.Tensor
}

// InferBatch runs a micro-batch of same-shaped inputs through the network
// as one forward pass and returns one output per input. Outputs are
// bit-identical to calling Infer on each input in order (mode-dependent
// layers behave as with SetTraining(false)). Like Infer, a single network
// serves one InferBatch at a time; run concurrent batches on Clone
// replicas. Intermediate activations recycle through a per-network buffer
// pool, so steady-state batched inference allocates almost nothing beyond
// its outputs.
func (n *Network) InferBatch(xs []*tensor.Tensor) []*tensor.Tensor {
	switch len(xs) {
	case 0:
		return nil
	case 1:
		return []*tensor.Tensor{n.Infer(xs[0])}
	}
	shape := xs[0].Shape()
	for _, x := range xs[1:] {
		if !x.Shape().Equal(shape) {
			panic(fmt.Sprintf("nn: InferBatch inputs must share one shape; got %v and %v",
				shape, x.Shape()))
		}
	}
	if n.batchBuf == nil {
		n.batchBuf = tensor.NewBufPool()
	}
	ctx := &batchCtx{pool: n.inferPool(), buf: n.batchBuf}

	// cur flows through the layers; owned tracks whether its buffers came
	// from the recycler (caller inputs never do) and may return to it once
	// the next layer has consumed them. Zero-copy layers (Flatten's
	// reshape, Dropout's inference identity) alias their input, detected by
	// backing-pointer identity, in which case ownership simply carries.
	// With a trace attached, each layer's kernel time lands in its span
	// (batch granularity: one observation covers the whole micro-batch);
	// untraced passes skip every clock read.
	tr := n.trace
	var start, last time.Time
	if tr != nil {
		start = time.Now()
		last = start
	}
	cur, owned := xs, false
	for li, l := range n.Layers {
		var next []*tensor.Tensor
		if bi, ok := l.(batchInferrer); ok {
			next = bi.inferBatch(cur, ctx)
		} else {
			next = make([]*tensor.Tensor, len(cur))
			for i, x := range cur {
				next[i] = inferLayer(l, x)
			}
		}
		if tr != nil {
			now := time.Now()
			tr.Layers[li].Observe(now.Sub(last))
			last = now
		}
		if !sameBacking(next[0], cur[0]) {
			if owned {
				for _, t := range cur {
					ctx.buf.Put(t.Data())
				}
			}
			owned = true
		}
		cur = next
	}
	if tr != nil {
		tr.Forward.Observe(last.Sub(start))
	}
	return cur
}

// inferPool returns the worker pool batched inference schedules poolless
// layers on: the first compute layer's pool, so the whole forward shares
// one intra-node thread set, or parallel.Default for networks without one.
func (n *Network) inferPool() *parallel.Pool {
	for _, l := range n.Layers {
		switch v := l.(type) {
		case *Conv3D:
			return v.pool
		case *Dense:
			return v.pool
		}
	}
	return parallel.Default
}

// sameBacking reports whether two tensors share the same backing array
// start — true exactly for the zero-copy reshape/identity layers.
func sameBacking(a, b *tensor.Tensor) bool {
	ad, bd := a.Data(), b.Data()
	return len(ad) > 0 && len(bd) > 0 && &ad[0] == &bd[0]
}

// inferBatch implements batchInferrer: the same direct or Algorithm-1
// blocked kernels as Infer, with thread decomposition widened from the
// per-sample task space to (batch × task).
func (c *Conv3D) inferBatch(xs []*tensor.Tensor, ctx *batchCtx) []*tensor.Tensor {
	in := xs[0].Shape()
	c.checkInput(in)
	if c.useBlocked() {
		return c.inferBatchBlocked(xs, ctx)
	}
	out := c.OutputShape(in)
	ys := make([]*tensor.Tensor, len(xs))
	for i := range ys {
		ys[i] = ctx.alloc(out...)
	}
	c.forwardDirect(xs, ys)
	return ys
}

// inferBatchBlocked runs Algorithm 1 over the whole micro-batch: one layout
// conversion pass, then one parallel-for over every (channel-block, depth)
// slab with the batch innermost, so each 16×16 weight block streams once
// per kernel offset and serves all B samples. Blocked scratch recycles
// through the buffer pool; useBlocked guarantees the channel counts are
// multiples of BlockSize, so recycled buffers have no padding lanes to
// clear.
func (c *Conv3D) inferBatchBlocked(xs []*tensor.Tensor, ctx *batchCtx) []*tensor.Tensor {
	in := xs[0].Shape()
	out := c.OutputShape(in)
	od := out[1]

	B := len(xs)
	srcs := make([]*tensor.Blocked, B)
	dsts := make([]*tensor.Blocked, B)
	srcLen := c.InC * in[1] * in[2] * in[3]
	dstLen := c.OutC * od * out[2] * out[3]
	c.pool.ForEach(B, 1, func(b int) {
		srcs[b] = tensor.WrapBlocked(ctx.buf.Get(srcLen), c.InC, in[1], in[2], in[3])
		tensor.ToBlockedInto(xs[b], srcs[b])
		dsts[b] = tensor.WrapBlocked(ctx.buf.Get(dstLen), c.OutC, od, out[2], out[3])
	})
	c.blockedSlabs(srcs, dsts)

	ys := make([]*tensor.Tensor, B)
	c.pool.ForEach(B, 1, func(b int) {
		ctx.buf.Put(srcs[b].Data)
		ys[b] = ctx.alloc(out...)
		tensor.FromBlockedInto(dsts[b], ys[b])
		ctx.buf.Put(dsts[b].Data)
	})
	return ys
}

// inferBatch implements batchInferrer, decomposed over (sample × channel).
func (p *AvgPool3D) inferBatch(xs []*tensor.Tensor, ctx *batchCtx) []*tensor.Tensor {
	in := xs[0].Shape()
	out := p.OutputShape(in)
	ys := make([]*tensor.Tensor, len(xs))
	for i := range ys {
		ys[i] = ctx.alloc(out...)
	}
	ch := in[0]
	ctx.pool.ForEach(len(xs)*ch, 1, func(task int) {
		b, c := task/ch, task%ch
		p.poolChannel(xs[b].Data(), ys[b].Data(), in, out, c)
	})
	return ys
}

// inferBatch implements batchInferrer, decomposed over samples (the
// element-wise stages are bandwidth-bound; one sample per task keeps them
// cache-local).
func (l *LeakyReLU) inferBatch(xs []*tensor.Tensor, ctx *batchCtx) []*tensor.Tensor {
	ys := make([]*tensor.Tensor, len(xs))
	for i := range ys {
		ys[i] = ctx.alloc(xs[i].Shape()...)
	}
	ctx.pool.ForEach(len(xs), 1, func(b int) {
		l.applyInto(xs[b].Data(), ys[b].Data())
	})
	return ys
}

// inferBatch implements batchInferrer: y = Wx + b over the whole batch,
// decomposed over (sample × output-row) with contiguous per-sample row
// ranges per worker.
func (d *Dense) inferBatch(xs []*tensor.Tensor, ctx *batchCtx) []*tensor.Tensor {
	ys := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		if x.NumElements() != d.In {
			panic(fmt.Sprintf("nn: %s expects %d inputs, got %d", d.Name(), d.In, x.NumElements()))
		}
		ys[i] = ctx.alloc(d.Out)
	}
	d.pool.For(len(xs)*d.Out, 16, func(lo, hi int) {
		for lo < hi {
			b := lo / d.Out
			o0 := lo % d.Out
			o1 := d.Out
			if rem := hi - b*d.Out; rem < o1 {
				o1 = rem
			}
			d.applyRange(xs[b].Data(), ys[b].Data(), o0, o1)
			lo = b*d.Out + o1
		}
	})
	return ys
}

// inferBatch implements batchInferrer: normalization by the running
// statistics (inference mode), decomposed over (sample × channel).
func (bn *BatchNorm3D) inferBatch(xs []*tensor.Tensor, ctx *batchCtx) []*tensor.Tensor {
	s := xs[0].Shape()
	if len(s) != 4 || s[0] != bn.C {
		panic("nn: BatchNorm3D input shape mismatch")
	}
	n := s[1] * s[2] * s[3]
	ys := make([]*tensor.Tensor, len(xs))
	for i := range ys {
		ys[i] = ctx.alloc(s...)
	}
	ctx.pool.ForEach(len(xs)*bn.C, 1, func(task int) {
		b, c := task/bn.C, task%bn.C
		bn.inferChannel(xs[b].Data(), ys[b].Data(), n, c)
	})
	return ys
}

// inferBatch implements batchInferrer: zero-copy reshapes.
func (f *Flatten) inferBatch(xs []*tensor.Tensor, _ *batchCtx) []*tensor.Tensor {
	ys := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		ys[i] = x.Reshape(x.NumElements())
	}
	return ys
}

// inferBatch implements batchInferrer: dropout is the identity at
// inference.
func (d *Dropout) inferBatch(xs []*tensor.Tensor, _ *batchCtx) []*tensor.Tensor { return xs }
