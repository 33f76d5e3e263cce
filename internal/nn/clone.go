package nn

import (
	"fmt"

	"repro/internal/parallel"
)

// Layers cache forward activations for the backward pass (Conv3D.x and
// friends), so a single Network serves exactly one in-flight sample at a
// time and Forward is not safe to call from multiple goroutines. Concurrent
// inference instead runs one *replica* per worker: Clone produces a network
// that shares the original's read-only parameter tensors (and any packed
// blocked-weight caches already built) while owning its own activation
// caches, so replicas are safe to run in parallel as long as nobody mutates
// the shared weights. Hot-swapping a model therefore means building a fresh
// network + clones and switching pointers, never writing into weights that
// live replicas still read.

// cloneableLayer is implemented by every layer that supports replication.
type cloneableLayer interface {
	// cloneFor returns a replica of the layer sharing its parameters.
	// A nil pool keeps the original's pool (for layers that have one).
	cloneFor(pool *parallel.Pool) Layer
}

// Clone returns an inference replica of the network: identical topology,
// shared parameter tensors, independent activation caches. pool supplies
// the replica's intra-node threading; nil shares the original's pools.
// Training a clone would race on the shared Param.Grad tensors — replicas
// are for Forward/Infer only.
func (n *Network) Clone(pool *parallel.Pool) (*Network, error) {
	c := &Network{
		Layers:        make([]Layer, len(n.Layers)),
		InputDim:      n.InputDim,
		InputChannels: n.InputChannels,
		// Replicas share the original's forward trace (span updates are
		// atomic), so one snapshot aggregates the whole replica pool.
		trace: n.trace,
	}
	for i, l := range n.Layers {
		cl, ok := l.(cloneableLayer)
		if !ok {
			return nil, fmt.Errorf("nn: layer %s (%T) does not support Clone", l.Name(), l)
		}
		c.Layers[i] = cl.cloneFor(pool)
	}
	return c, nil
}

func (c *Conv3D) cloneFor(pool *parallel.Pool) Layer {
	if pool == nil {
		pool = c.pool
	}
	return &Conv3D{
		InC: c.InC, OutC: c.OutC, K: c.K, Stride: c.Stride, Pad: c.Pad,
		W: c.W, B: c.B,
		pool:       pool,
		forceNaive: c.forceNaive,
		// Share any weight packs already built: a pack is never written
		// after it is built, and replicas never bump wVersion.
		fwdPack: c.fwdPack, bwdPack: c.bwdPack,
		wVersion: c.wVersion,
	}
}

func (d *Dense) cloneFor(pool *parallel.Pool) Layer {
	if pool == nil {
		pool = d.pool
	}
	return &Dense{In: d.In, Out: d.Out, W: d.W, B: d.B, pool: pool}
}

func (f *Flatten) cloneFor(*parallel.Pool) Layer { return &Flatten{name: f.name} }

func (p *AvgPool3D) cloneFor(*parallel.Pool) Layer {
	return &AvgPool3D{K: p.K, Stride: p.Stride, name: p.name}
}

func (l *LeakyReLU) cloneFor(*parallel.Pool) Layer {
	return &LeakyReLU{Alpha: l.Alpha, name: l.name}
}

func (bn *BatchNorm3D) cloneFor(*parallel.Pool) Layer {
	// Running statistics are shared read-only; a training-mode clone would
	// race on them, so replicas are built for inference.
	return &BatchNorm3D{
		C: bn.C, Eps: bn.Eps, Momentum: bn.Momentum, Train: bn.Train,
		Gamma: bn.Gamma, Beta: bn.Beta,
		runMean: bn.runMean, runVar: bn.runVar,
	}
}

func (d *Dropout) cloneFor(*parallel.Pool) Layer {
	return &Dropout{Rate: d.Rate, Train: d.Train, name: d.name, seed: d.seed}
}
