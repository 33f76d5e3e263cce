package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/cosmo"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// stepSpans is one traced training step on one rank: the step's wall time
// and the time spent in each public call it makes.
type stepSpans struct {
	step     time.Duration // whole step, outer clock pair
	next     time.Duration // SampleStream.Next
	zero     time.Duration // Network.ZeroGrads
	fwd      time.Duration // Network.Forward + MSELoss
	bwd      time.Duration // Network.Backward
	copy     time.Duration // FlattenGrads + UnflattenGrads
	ar       time.Duration // Comm.AllReduceMean
	opt      time.Duration // AdamLARC.Step
	inval    time.Duration // Network.InvalidateWeights
	arIn     time.Time     // AllReduceMean entry
	bytes    int64         // bytes this rank sent inside AllReduceMean
	msgs     int64         // messages this rank sent inside AllReduceMean
	attached time.Duration // sum of the spans above
}

// sentCounter is the traffic count comm and dist worlds both keep.
type sentCounter interface {
	BytesSent() int64
	MessagesSent() int64
}

// trainTrace replays runRank's blocking step from the benchmark's own
// code, timing each public call, and accumulates the timed steps of every
// replayed trial.
type trainTrace struct {
	s           trainSpec
	ranks       [][]stepSpans // per rank, timed steps, index-aligned across ranks
	tracedCosts []float64     // per-step cost of each timed traced epoch, ms
	fwdFLOPs    int64
	bwdFLOPs    int64
	params      int
	repack      []float64 // ms to repack the forward conv weights once
}

func newTrainTrace(s trainSpec) *trainTrace {
	return &trainTrace{s: s, ranks: make([][]stepSpans, s.Ranks)}
}

// rankReplay is one rank's output from a replayed trial.
type rankReplay struct {
	losses    []float64
	epochTime []time.Duration
	steps     int
	net       *nn.Network
	spans     []stepSpans
}

// replay trains one trial with the traced step loop and returns the same
// outcome an untraced trial does, so the caller can hold it to the same
// checks.
func (tr *trainTrace) replay(seed int64, ts *trialSetup) (*trialOutcome, error) {
	s := tr.s
	comms := make([]*comm.Comm, s.Ranks)
	counters := make([]sentCounter, s.Ranks)
	if s.TCP {
		for r, w := range ts.worlds {
			comms[r], counters[r] = w.Comm(), w
		}
	} else {
		w, err := comm.NewWorld(s.Ranks, comm.WithAlgorithm(comm.Ring), comm.WithHelpers(s.Helpers))
		if err != nil {
			return nil, err
		}
		for r := range comms {
			comms[r], counters[r] = w.Comm(r), w
		}
	}
	reps := make([]*rankReplay, s.Ranks)
	errs := make([]error, s.Ranks)
	var wg sync.WaitGroup
	for r := 0; r < s.Ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			reps[r], errs[r] = tr.replayRank(seed, r, comms[r], counters[r], ts.loaders[r], ts.val)
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}

	out := &trialOutcome{losses: reps[0].losses, epochTime: reps[0].epochTime, steps: reps[0].steps}
	for r, rep := range reps {
		p := make([]float32, rep.net.ParamCount())
		rep.net.FlattenParams(p)
		out.params = append(out.params, p)
		tr.ranks[r] = append(tr.ranks[r], rep.spans...)
	}
	tr.tracedCosts = append(tr.tracedCosts, out.timedStepCosts()...)
	net := reps[0].net
	tr.fwdFLOPs, tr.bwdFLOPs = net.TotalFLOPs()
	tr.params = net.ParamCount()
	tr.repack = append(tr.repack, repackMs(net))
	return out, nil
}

// replayRank is runRank's blocking step loop for one rank, written against
// the public API with a clock pair around every call.
func (tr *trainTrace) replayRank(seed int64, rank int, c *comm.Comm, sent sentCounter,
	loader *data.Loader, val []*cosmo.Sample) (*rankReplay, error) {
	s := tr.s
	cfg := s.config(seed, loader)
	topo := cfg.Topology
	topo.Seed += int64(rank)
	pool := parallel.NewPool(s.WorkersPerRank)
	defer pool.Close()
	topo.Pool = pool
	net, err := nn.BuildCosmoFlow(topo)
	if err != nil {
		return nil, err
	}
	params := make([]float32, net.ParamCount())
	if rank == 0 {
		net.FlattenParams(params)
	}
	c.Broadcast(params, 0)
	net.UnflattenParams(params)

	stepsPerEpoch := loader.StepsPerEpoch(s.Ranks)
	opt := optim.New(net.Params(), optim.Config{Schedule: optim.DefaultSchedule(stepsPerEpoch * s.Epochs)})
	grad := make([]float32, net.GradSize())
	rep := &rankReplay{steps: stepsPerEpoch, net: net}
	for epoch := 0; epoch < s.Epochs; epoch++ {
		epochStart := time.Now()
		stream, err := loader.EpochStream(epoch, rank, s.Ranks)
		if err != nil {
			return nil, err
		}
		var lossSum float64
		for step := 0; step < stepsPerEpoch; step++ {
			var sp stepSpans
			t0 := time.Now()
			sample, err := stream.Next()
			sp.next = time.Since(t0)
			if err != nil {
				stream.Close()
				return nil, fmt.Errorf("rank %d epoch %d step %d: %w", rank, epoch, step, err)
			}
			x := tensor.FromData(sample.Voxels, sample.NumChannels(), sample.Dim, sample.Dim, sample.Dim)

			t := time.Now()
			net.ZeroGrads()
			sp.zero = time.Since(t)

			t = time.Now()
			pred := net.Forward(x)
			loss, dy := nn.MSELoss(pred, sample.Target[:])
			sp.fwd = time.Since(t)
			lossSum += loss

			t = time.Now()
			net.Backward(dy)
			sp.bwd = time.Since(t)

			t = time.Now()
			net.FlattenGrads(grad)
			sp.copy = time.Since(t)

			b0, m0 := sent.BytesSent(), sent.MessagesSent()
			sp.arIn = time.Now()
			c.AllReduceMean(grad)
			sp.ar = time.Since(sp.arIn)
			sp.bytes, sp.msgs = sent.BytesSent()-b0, sent.MessagesSent()-m0

			t = time.Now()
			net.UnflattenGrads(grad)
			sp.copy += time.Since(t)

			t = time.Now()
			opt.Step()
			sp.opt = time.Since(t)

			t = time.Now()
			net.InvalidateWeights()
			sp.inval = time.Since(t)
			sp.step = time.Since(t0)

			sp.attached = sp.next + sp.zero + sp.fwd + sp.bwd + sp.copy + sp.ar + sp.opt + sp.inval
			if epoch > 0 {
				rep.spans = append(rep.spans, sp)
			}
		}
		globalLoss := c.AllReduceScalar(lossSum) / float64(s.Ranks*stepsPerEpoch)
		validate(c, net, val, rank, s.Ranks)
		rep.losses = append(rep.losses, globalLoss)
		rep.epochTime = append(rep.epochTime, time.Since(epochStart))
		c.Barrier()
		stream.Close()
	}
	return rep, nil
}

// validate repeats the training loop's validation pass: each rank scores
// its strided share of the validation set and the collectives sum it. The
// replay keeps it so that its epochs do the same work, and run the same
// collectives in the same order, as the epochs it is compared with.
func validate(c *comm.Comm, net *nn.Network, val []*cosmo.Sample, rank, ranks int) {
	var sum, count float64
	for i := rank; i < len(val); i += ranks {
		v := val[i]
		x := tensor.FromData(v.Voxels, v.NumChannels(), v.Dim, v.Dim, v.Dim)
		loss, _ := nn.MSELoss(net.Forward(x), v.Target[:])
		sum += loss
		count++
	}
	c.AllReduceScalar(sum)
	c.AllReduceScalar(count)
}

// repackMs times repacking the weights of every convolution the blocked
// forward kernel serves — the work each step's first Forward redoes after
// InvalidateWeights — as the median of several repacks.
func repackMs(net *nn.Network) float64 {
	var times []float64
	for rep := 0; rep < 15; rep++ {
		t := time.Now()
		for _, c := range net.ConvLayers() {
			if c.Stride == 1 && c.InC%tensor.BlockSize == 0 && c.OutC%tensor.BlockSize == 0 {
				tensor.PackWeights(c.W.Value)
			}
		}
		times = append(times, ms(time.Since(t)))
	}
	return median(times)
}

// report turns the accumulated spans into the per-layer metrics. plainCosts
// are the untraced trials' per-step costs, the base of the overhead.
func (tr *trainTrace) report(res *result, plainCosts []float64) {
	var fwd, bwd, next, cp, ar, opt, step, unattr []float64
	for _, spans := range tr.ranks {
		for _, sp := range spans {
			fwd = append(fwd, ms(sp.fwd))
			bwd = append(bwd, ms(sp.zero+sp.bwd))
			next = append(next, ms(sp.next))
			cp = append(cp, ms(sp.copy))
			ar = append(ar, ms(sp.ar))
			opt = append(opt, ms(sp.opt))
			step = append(step, ms(sp.step))
			unattr = append(unattr, ms(sp.step-sp.attached))
		}
	}
	var skew, xfer, bytes, msgs []float64
	for i := range tr.ranks[0] {
		later := 0
		first := tr.ranks[0][i].arIn
		var b, m int64
		for r := range tr.ranks {
			sp := tr.ranks[r][i]
			if sp.arIn.After(tr.ranks[later][i].arIn) {
				later = r
			}
			if sp.arIn.Before(first) {
				first = sp.arIn
			}
			b += sp.bytes
			m += sp.msgs
		}
		skew = append(skew, ms(tr.ranks[later][i].arIn.Sub(first)))
		xfer = append(xfer, ms(tr.ranks[later][i].ar))
		bytes = append(bytes, float64(b))
		msgs = append(msgs, float64(m))
	}

	fwdMs, bwdMs, optMs := median(fwd), median(bwd), median(opt)
	p50, p95 := tailAt(step, 50), tailAt(step, 95)
	fmt.Fprintf(os.Stderr, "perfbench: traced steps n=%d (all ranks); step p%g=%.3fms p%g=%.3fms\n",
		p50.N, p50.P, p50.Value, p95.P, p95.Value)
	res.set("nn.forward_ms", fwdMs, "ms")
	res.set("nn.backward_ms", bwdMs, "ms")
	res.set("nn.forward_gflops", float64(tr.fwdFLOPs)/(fwdMs*1e6), "GFLOP/s")
	res.set("nn.backward_gflops", float64(tr.bwdFLOPs)/(bwdMs*1e6), "GFLOP/s")
	res.set("nn.repack_ms", median(tr.repack), "ms")
	res.set("optim.step_ms", optMs, "ms")
	res.set("optim.ns_per_param", optMs*1e6/float64(tr.params), "ns")
	res.set("data.next_ms", median(next), "ms")
	res.set("train.grad_copy_ms", median(cp), "ms")
	res.set("train.step_p50_ms", p50.Value, "ms")
	res.set("train.step_p95_ms", p95.Value, "ms")
	res.set("trace.unattributed_ms", median(unattr), "ms")
	res.set("trace.overhead_pct", (median(tr.tracedCosts)/median(plainCosts)-1)*100, "%")
	res.set("comm.allreduce_ms", median(ar), "ms")
	res.set("comm.skew_ms", median(skew), "ms")
	res.set("comm.xfer_ms", median(xfer), "ms")
	res.set("comm.bytes_per_step", mean(bytes), "bytes")
	res.set("comm.msgs_per_step", mean(msgs), "count")
	fillIdle(res)
}
