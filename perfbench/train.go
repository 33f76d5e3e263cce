package main

import (
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/cosmo"
	"repro/internal/data"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/tfrecord"
	"repro/internal/train"
)

// trainSpec configures a training workload. Each trial of a run is what a
// user does: write the sharded dataset, open it, join the world, and train
// Epochs epochs, the first of which is warm-up and not timed.
type trainSpec struct {
	Ranks          int
	WorkersPerRank int
	Helpers        int
	TCP            bool // join the ranks over loopback TCP (dist) instead of in-process channels
	Dim            int
	Base           int
	TrainSamples   int
	ValSamples     int
	PerShard       int
	Epochs         int
	LossSets       int   // distinct seeded data sets per run; train_loss averages their final losses
	WeightSeed     int64 // network initialization; fixed, not the run's seed
}

var train1Rank = trainSpec{
	Ranks: 1, WorkersPerRank: 2, Helpers: 1,
	Dim: 16, Base: 4, TrainSamples: 32, ValSamples: 4, PerShard: 8, Epochs: 3, LossSets: 8, WeightSeed: 1,
}

var train2RankTCP = trainSpec{
	Ranks: 2, WorkersPerRank: 1, Helpers: 1, TCP: true,
	Dim: 16, Base: 4, TrainSamples: 32, ValSamples: 4, PerShard: 8, Epochs: 3, LossSets: 8, WeightSeed: 1,
}

// config is the train.Config every rank of a trial runs with.
func (s trainSpec) config(seed int64, loader *data.Loader) train.Config {
	return train.Config{
		Ranks:          s.Ranks,
		Epochs:         s.Epochs,
		Topology:       nn.TopologyConfig{InputDim: s.Dim, BaseChannels: s.Base, Seed: s.WeightSeed},
		Algorithm:      comm.Ring,
		Helpers:        s.Helpers,
		WorkersPerRank: s.WorkersPerRank,
		Seed:           seed,
		Data:           loader,
	}
}

// samples generates the workload's seeded training and validation sets.
func (s trainSpec) samples(seed int64) (trainSet, valSet []*cosmo.Sample) {
	rng := rand.New(rand.NewSource(seed))
	return stratifiedSamples(rng, s.TrainSamples, s.Dim), stratifiedSamples(rng, s.ValSamples, s.Dim)
}

// trialSetup is one trial's opened dataset and joined world.
type trialSetup struct {
	loaders []*data.Loader // one per rank, as separate processes would open
	val     []*cosmo.Sample
	worlds  []*dist.World // TCP worlds only
}

func (t *trialSetup) close() {
	for _, w := range t.worlds {
		w.Close()
	}
	for _, l := range t.loaders {
		l.Close()
	}
}

// setup writes the shards and manifest into dir, opens a loader per rank,
// reads the validation split back, and (for TCP workloads) joins the
// world.
func (s trainSpec) setup(dir string, seed int64, trainSet, valSet []*cosmo.Sample) (*trialSetup, error) {
	if _, err := tfrecord.WriteDataset(dir, "train", trainSet, s.PerShard); err != nil {
		return nil, err
	}
	if _, err := tfrecord.WriteDataset(dir, "val", valSet, s.PerShard); err != nil {
		return nil, err
	}
	m, err := data.Scan(dir, "train", "val")
	if err != nil {
		return nil, err
	}
	if err := data.WriteManifest(dir, m); err != nil {
		return nil, err
	}
	t := &trialSetup{}
	src := &data.DirSource{Dir: dir}
	for r := 0; r < s.Ranks; r++ {
		l, err := data.NewLoader(data.Config{Source: src, Seed: seed})
		if err != nil {
			t.close()
			return nil, err
		}
		t.loaders = append(t.loaders, l)
	}
	if t.val, err = data.ReadAll(src, "val"); err != nil {
		t.close()
		return nil, err
	}
	if s.TCP {
		if t.worlds, err = s.join(); err != nil {
			t.close()
			return nil, err
		}
	}
	return t, nil
}

// join forms a TCP world of s.Ranks members inside this process, each
// joining from its own goroutine as a separate process would.
func (s trainSpec) join() ([]*dist.World, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	worlds := make([]*dist.World, s.Ranks)
	errs := make([]error, s.Ranks)
	var wg sync.WaitGroup
	for r := 0; r < s.Ranks; r++ {
		cfg := dist.Config{Size: s.Ranks, Rank: r, Rendezvous: ln.Addr().String(),
			Algorithm: comm.Ring, Helpers: s.Helpers}
		if r == 0 {
			cfg.RendezvousListener = ln
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			worlds[r], errs[r] = dist.Join(cfg)
		}(r)
	}
	wg.Wait()
	ln.Close()
	for r, err := range errs {
		if err != nil {
			for _, w := range worlds {
				if w != nil {
					w.Close()
				}
			}
			return nil, fmt.Errorf("joining rank %d: %w", r, err)
		}
	}
	return worlds, nil
}

// trialOutcome is what one untraced or traced trial produced.
type trialOutcome struct {
	losses    []float64       // per-epoch global training loss
	epochTime []time.Duration // per-epoch wall time, as train reports it
	steps     int             // steps per rank per epoch
	params    [][]float32     // every rank's final parameters
}

// runUntraced trains one trial through the public entry point a user
// calls: train.Run in-process, or train.RunDistributed per rank over the
// joined TCP world.
func (s trainSpec) runUntraced(seed int64, t *trialSetup) (*trialOutcome, error) {
	results := make([]*train.Result, s.Ranks)
	if !s.TCP {
		res, err := train.Run(s.config(seed, t.loaders[0]), nil, t.val)
		if err != nil {
			return nil, err
		}
		results[0] = res
	} else {
		errs := make([]error, s.Ranks)
		var wg sync.WaitGroup
		for r := 0; r < s.Ranks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				results[r], errs[r] = train.RunDistributed(s.config(seed, t.loaders[r]), t.worlds[r].Comm(), nil, t.val)
			}(r)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	out := &trialOutcome{}
	for _, e := range results[0].Epochs {
		out.losses = append(out.losses, e.TrainLoss)
		out.epochTime = append(out.epochTime, e.Duration)
		out.steps = e.Steps
	}
	for _, res := range results {
		p := make([]float32, res.Net.ParamCount())
		res.Net.FlattenParams(p)
		out.params = append(out.params, p)
	}
	return out, nil
}

// check returns why a trial's output is wrong, or "" when it is right:
// every loss finite, every rank's parameters bit-identical, and the
// per-epoch losses bit-identical to the reference trial at the same seed
// (nil for the first).
func (o *trialOutcome) check(ref []float64) string {
	for i, l := range o.losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			return fmt.Sprintf("epoch %d training loss is %v", i, l)
		}
	}
	for r := 1; r < len(o.params); r++ {
		if !sameBits(o.params[0], o.params[r]) {
			return fmt.Sprintf("rank %d parameters differ from rank 0", r)
		}
	}
	if ref != nil {
		for i := range ref {
			if math.Float64bits(ref[i]) != math.Float64bits(o.losses[i]) {
				return fmt.Sprintf("epoch %d loss %v differs from %v at the same seed", i, o.losses[i], ref[i])
			}
		}
	}
	return ""
}

func sameBits(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// timedStepCosts returns the per-step wall time of each timed (non-warm-up)
// epoch, in milliseconds.
func (o *trialOutcome) timedStepCosts() []float64 {
	var out []float64
	for _, d := range o.epochTime[1:] {
		out = append(out, ms(d)/float64(o.steps))
	}
	return out
}

// dataSeeds derives the run's LossSets data-set seeds from its seed.
func (s trainSpec) dataSeeds(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, s.LossSets)
	for i := range out {
		out[i] = rng.Int63()
	}
	return out
}

// runTrain runs trials until the measuring time is used up and every data
// set has been trained once. Trials cycle through the run's data sets.
// Untraced, it reports throughput, set-up time and the mean final loss;
// traced, each data set is trained untraced and then replayed traced, and
// the per-layer metrics are reported.
func runTrain(s trainSpec, o options) (*result, error) {
	start := time.Now()
	seeds := s.dataSeeds(o.Seed)
	type dataSet struct{ train, val []*cosmo.Sample }
	sets := make([]dataSet, len(seeds))
	for i, sd := range seeds {
		sets[i].train, sets[i].val = s.samples(sd)
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var (
		refLosses  = make([][]float64, len(seeds)) // first untraced losses per data set
		setups     []float64
		rates      []float64
		plainCosts []float64
		tr         = newTrainTrace(s)
	)
	perSet, minTrials := 1, len(seeds)
	if o.Trace {
		perSet, minTrials = 2, 2
	}
	stop := o.deadline(start)
	for trial := 0; ; trial++ {
		traced := o.Trace && trial%2 == 1
		set := (trial / perSet) % len(seeds)
		dir := filepath.Join(o.WorkDir, fmt.Sprintf("trial-%d", trial))
		t0 := time.Now()
		ts, err := s.setup(dir, seeds[set], sets[set].train, sets[set].val)
		if err != nil {
			return nil, fmt.Errorf("trial %d set-up: %w", trial, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		var out *trialOutcome
		if traced {
			out, err = tr.replay(seeds[set], ts)
		} else {
			out, err = s.runUntraced(seeds[set], ts)
		}
		ts.close()
		if err != nil {
			return nil, fmt.Errorf("trial %d: %w", trial, err)
		}
		os.RemoveAll(dir)

		steps := s.Ranks * out.steps * s.Epochs
		res.Attempted += steps
		if why := out.check(refLosses[set]); why != "" {
			fmt.Fprintf(os.Stderr, "perfbench: trial %d (traced %v) failed its check: %s\n", trial, traced, why)
			res.Failed += steps
		}
		if refLosses[set] == nil && !traced {
			refLosses[set] = out.losses
		}
		if !traced {
			plainCosts = append(plainCosts, out.timedStepCosts()...)
			for _, c := range out.timedStepCosts() {
				rates = append(rates, float64(s.Ranks)/c*1000)
			}
		}
		fmt.Fprintf(os.Stderr, "perfbench: trial %d set %d traced=%v setup %.3fs losses %v epoch times %v\n",
			trial, set, traced, setups[len(setups)-1], out.losses, out.epochTime)
		if !time.Now().Before(stop) && trial+1 >= minTrials {
			break
		}
	}

	if !o.Trace {
		var final []float64
		for _, l := range refLosses {
			final = append(final, l[len(l)-1])
		}
		// A global step is the unit of work a training user waits on; the
		// serving-named metrics report its latency and the correct
		// throughput (see README.md).
		p50 := tailAt(plainCosts, 50)
		fmt.Fprintf(os.Stderr, "perfbench: step latency over n=%d timed epochs: p%g=%.3fms\n", p50.N, p50.P, p50.Value)
		res.set("setup_s", median(setups), "s")
		res.set("samples_per_s", median(rates), "samples/s")
		res.set("train_loss", mean(final), "mse")
		res.set("serve_p50_ms", p50.Value, "ms")
		res.set("serve_goodput_rps", median(rates)*float64(res.Attempted-res.Failed)/float64(res.Attempted), "req/s")
		return res, nil
	}
	tr.report(res, plainCosts)
	return res, nil
}
