package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cosmo"
	"repro/internal/gateway"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/serve/api"
	"repro/internal/serve/client"
	"repro/internal/serve/wire"
	"repro/internal/tensor"
)

// serveSpec configures the open-loop serving workload: Backends in-process
// serve backends of Replicas replicas each behind one in-process gateway,
// driven by a seeded Poisson stream of single-volume predicts at Rate
// requests per second over Conns connections.
type serveSpec struct {
	Backends          int
	Replicas          int
	WorkersPerReplica int
	Dim               int
	Base              int
	WeightSeed        int64 // backend weights; fixed, not the run's seed
	Policy            string
	Encoding          client.Encoding
	Rate              float64 // requests per second
	LimitMs           float64 // latency limit for goodput
	Conns             int
	Volumes           int // distinct seeded volumes the requests cycle through
	Setups            int // set-ups per run; the last one serves the timed window
	WarmRequests      int
}

var serveOpen = serveSpec{
	Backends: 2, Replicas: 1, WorkersPerReplica: 1,
	Dim: 16, Base: 4, WeightSeed: 1,
	Policy: gateway.PolicyLeastOutstanding, Encoding: client.Binary,
	Rate: 50, LimitMs: 50, Conns: 2, Volumes: 64,
	Setups: 3, WarmRequests: 32,
}

// handlerLog records how long a wrapped handler spent on each predict,
// keyed by X-Request-Id.
type handlerLog struct {
	mu sync.Mutex
	d  map[string]time.Duration
}

func newHandlerLog() *handlerLog { return &handlerLog{d: map[string]time.Duration{}} }

func (l *handlerLog) get(rid string) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	d, ok := l.d[rid]
	return d, ok
}

// timed wraps a handler so each predict's handler time lands in log; nil
// log leaves the handler as it is.
func timed(h http.Handler, log *handlerLog) http.Handler {
	if log == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		d := time.Since(t0)
		if strings.HasSuffix(r.URL.Path, ":predict") {
			log.mu.Lock()
			log.d[r.Header.Get(api.HeaderRequestID)] = d
			log.mu.Unlock()
		}
	})
}

// cluster is one set-up of the serving stack: the backends, the gateway in
// front of them, and the HTTP servers carrying both.
type cluster struct {
	regs    []*serve.Registry
	gw      *gateway.Gateway
	servers []*http.Server
	url     string
	backLog *handlerLog // nil unless traced
	gwLog   *handlerLog
}

// listen serves h on a fresh loopback port and returns its base URL.
func (c *cluster) listen(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	c.servers = append(c.servers, hs)
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), nil
}

// startCluster brings the stack up and returns once the gateway reports
// healthy and WarmRequests predicts have gone through it.
func (s serveSpec) startCluster(traced bool, warm []*cosmo.Sample) (*cluster, error) {
	c := &cluster{}
	if traced {
		c.backLog, c.gwLog = newHandlerLog(), newHandlerLog()
	}
	var urls []string
	for b := 0; b < s.Backends; b++ {
		reg := serve.NewRegistry()
		c.regs = append(c.regs, reg)
		if _, err := reg.Load(serve.ModelConfig{
			Topology:          nn.TopologyConfig{InputDim: s.Dim, BaseChannels: s.Base, Seed: s.WeightSeed},
			Replicas:          s.Replicas,
			WorkersPerReplica: s.WorkersPerReplica,
		}); err != nil {
			c.close()
			return nil, err
		}
		u, err := c.listen(timed(serve.NewServer(reg, "").Handler(), c.backLog))
		if err != nil {
			c.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	gw, err := gateway.New(gateway.Config{Backends: urls, Policy: s.Policy})
	if err != nil {
		c.close()
		return nil, err
	}
	c.gw = gw
	if c.url, err = c.listen(timed(gw.Handler(), c.gwLog)); err != nil {
		c.close()
		return nil, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cl := client.New(c.url, client.WithEncoding(s.Encoding))
	for {
		h, err := cl.Health(ctx)
		if err == nil && h.Status == "ok" {
			break
		}
		if ctx.Err() != nil {
			c.close()
			return nil, fmt.Errorf("gateway not healthy: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	for i := 0; i < s.WarmRequests; i++ {
		if _, err := cl.Predict(ctx, "", s.dims(), warm[i%len(warm)].Voxels); err != nil {
			c.close()
			return nil, fmt.Errorf("warm-up predict: %w", err)
		}
	}
	return c, nil
}

func (c *cluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range c.servers {
		hs.Shutdown(ctx)
	}
	if c.gw != nil {
		c.gw.Close()
	}
	for _, r := range c.regs {
		r.Close()
	}
}

// model returns backend b's served model.
func (c *cluster) model(b int) *serve.Model {
	m, _ := c.regs[b].Get(serve.DefaultModel)
	return m
}

func (s serveSpec) dims() []int { return []int{1, s.Dim, s.Dim, s.Dim} }

// volumes generates the run's seeded request volumes.
func (s serveSpec) volumes(seed int64) []*cosmo.Sample {
	return stratifiedSamples(rand.New(rand.NewSource(seed)), s.Volumes, s.Dim)
}

// reference computes every volume's expected normalized output with
// nn.Network.Infer on a network built from the backends' weight seed.
func (s serveSpec) reference(vols []*cosmo.Sample) ([][3]float32, *nn.Network, error) {
	net, err := nn.BuildCosmoFlow(nn.TopologyConfig{InputDim: s.Dim, BaseChannels: s.Base, Seed: s.WeightSeed})
	if err != nil {
		return nil, nil, err
	}
	net.SetTraining(false)
	out := make([][3]float32, len(vols))
	for i, v := range vols {
		copy(out[i][:], net.Infer(tensor.FromData(v.Voxels, s.dims()...)).Data())
	}
	return out, net, nil
}

// requestSpans is one request's client-side timing in a traced run.
type requestSpans struct {
	encode, roundTrip, decode time.Duration
}

// statsDelta is the change in a served model's counters over the window.
type statsDelta struct {
	batches, items, kernelMs, queueMs float64
}

func totals(st serve.Stats) statsDelta {
	items := st.AvgBatch * float64(st.Batches)
	return statsDelta{batches: float64(st.Batches), items: items,
		kernelMs: st.AvgKernelMs * float64(st.Batches), queueMs: st.AvgQueueMs * items}
}

// runServe sets the stack up Setups times (timing each), plays the seeded
// open-loop schedule against the last set-up for the measuring time, and
// checks every answer bit-for-bit against nn.Network.Infer afterwards.
func runServe(s serveSpec, o options) (*result, error) {
	vols := s.volumes(o.Seed)
	schedule := poissonSchedule(o.Seed, s.Rate, time.Duration(o.Seconds*float64(time.Second)))
	if len(schedule) == 0 {
		return nil, fmt.Errorf("empty schedule: %v s at %v req/s", o.Seconds, s.Rate)
	}

	var setups []float64
	var c *cluster
	for i := 0; i < s.Setups; i++ {
		if c != nil {
			c.close()
			// Release the torn-down stack before the next set-up, so the
			// peak resident set reflects one stack, not leftover garbage.
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if c, err = s.startCluster(o.Trace, vols); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer c.close()

	ctx := context.Background()
	admin := client.New(c.url)
	gwBefore, err := admin.GatewayStats(ctx)
	if err != nil {
		return nil, err
	}
	before := make([]statsDelta, s.Backends)
	for b := range before {
		before[b] = totals(c.model(b).Stats())
	}

	// The generator's own transport keeps it to Conns connections.
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: s.Conns, MaxIdleConnsPerHost: s.Conns, DisableCompression: true}}
	defer hc.CloseIdleConnections()
	cl := client.New(c.url, client.WithHTTPClient(hc), client.WithEncoding(s.Encoding))
	answers := make([][3]float32, len(schedule))
	spans := make([]requestSpans, len(schedule))
	lg := &openLoop{Schedule: schedule, Conns: s.Conns, Send: func(i int) error {
		t0 := time.Now()
		body, ct, err := client.EncodePredictRequest(s.Encoding, s.dims(), vols[i%len(vols)].Voxels)
		if err != nil {
			return err
		}
		hdr := http.Header{}
		hdr.Set(api.HeaderRequestID, "r"+strconv.Itoa(i))
		t1 := time.Now()
		resp, err := cl.PredictRaw(ctx, "", body, ct, wire.ContentTypeTensor, hdr)
		if err != nil {
			return err
		}
		t2 := time.Now()
		pr, err := client.DecodePredict(resp)
		if err != nil {
			return err
		}
		spans[i] = requestSpans{encode: t1.Sub(t0), roundTrip: t2.Sub(t1), decode: time.Since(t2)}
		answers[i] = pr.Normalized
		return nil
	}}
	shots := lg.run()

	// Correctness, after the timed window: every answer against Infer.
	ref, net, err := s.reference(vols)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: true, Metrics: map[string]metric{}, Attempted: len(shots)}
	var lat []float64
	var lossSum float64
	good := 0
	for i, sh := range shots {
		if sh.Err == nil && !sameBits(answers[i][:], ref[i%len(vols)][:]) {
			sh.Err = fmt.Errorf("answer %v, want %v", answers[i], ref[i%len(vols)])
		}
		if sh.Err != nil {
			res.Failed++
			if res.Failed <= 5 {
				fmt.Fprintf(os.Stderr, "perfbench: request %d failed: %v\n", i, sh.Err)
			}
			continue
		}
		l := ms(sh.Latency())
		lat = append(lat, l)
		if l <= s.LimitMs {
			good++
		}
		for k, t := range vols[i%len(vols)].Target {
			d := float64(answers[i][k]) - float64(t)
			lossSum += d * d / 3
		}
	}
	answered := len(shots) - res.Failed
	p50, p99 := tailAt(lat, 50), tailAt(lat, 99)
	fmt.Fprintf(os.Stderr, "perfbench: %d requests at %v req/s, %d answered correctly; latency n=%d p%g=%.3fms p%g=%.3fms\n",
		len(shots), s.Rate, answered, p50.N, p50.P, p50.Value, p99.P, p99.Value)

	if !o.Trace {
		res.set("setup_s", median(setups), "s")
		res.set("serve_p50_ms", p50.Value, "ms")
		res.set("serve_goodput_rps", float64(good)/o.Seconds, "req/s")
		// A served volume is the unit of work here; the training-named
		// metrics report the correct throughput and the objective over the
		// answers (see README.md).
		res.set("samples_per_s", float64(answered)/o.Seconds, "samples/s")
		res.set("train_loss", lossSum/float64(answered), "mse")
		return res, nil
	}

	// Per-layer: client spans, backend handler times, the gateway's share
	// of each round trip, and the served models' counter deltas.
	var enc, dec, handler, self, gwHandler, late []float64
	for i, sh := range shots {
		late = append(late, ms(sh.Late()))
		if sh.Err != nil {
			continue
		}
		rid := "r" + strconv.Itoa(i)
		enc = append(enc, float64(spans[i].encode)/1e3)
		dec = append(dec, float64(spans[i].decode)/1e3)
		if d, ok := c.backLog.get(rid); ok {
			handler = append(handler, ms(d))
			self = append(self, ms(spans[i].roundTrip-d))
		}
		if d, ok := c.gwLog.get(rid); ok {
			gwHandler = append(gwHandler, ms(d))
		}
	}
	if len(handler) != answered || len(gwHandler) != answered {
		return nil, errors.New("a served request left no handler record")
	}
	var d statsDelta
	for b := range before {
		after := totals(c.model(b).Stats())
		d.batches += after.batches - before[b].batches
		d.items += after.items - before[b].items
		d.kernelMs += after.kernelMs - before[b].kernelMs
		d.queueMs += after.queueMs - before[b].queueMs
	}
	gwAfter, err := admin.GatewayStats(ctx)
	if err != nil {
		return nil, err
	}
	shareMax := 0.0
	if routed := float64(gwAfter.Gateway.Requests - gwBefore.Gateway.Requests); routed > 0 {
		for b, st := range gwAfter.Backends {
			shareMax = math.Max(shareMax, float64(st.Requests-gwBefore.Backends[b].Requests)/routed)
		}
	}
	fwdFLOPs, _ := net.TotalFLOPs()
	h50, h99 := tailAt(handler, 50), tailAt(handler, 99)
	g50, g99 := tailAt(self, 50), tailAt(self, 99)
	lt := tailAt(late, 99)
	fmt.Fprintf(os.Stderr, "perfbench: traced %d requests; handler n=%d p%g, gateway self n=%d p%g, lateness n=%d p%g; gateway handler p50 %.3fms\n",
		len(shots), h99.N, h99.P, g99.N, g99.P, lt.N, lt.P, median(gwHandler))
	res.set("client.encode_us", median(enc), "us")
	res.set("client.decode_us", median(dec), "us")
	res.set("serve.handler_p50_ms", h50.Value, "ms")
	res.set("serve.handler_p99_ms", h99.Value, "ms")
	res.set("serve.kernel_ms", d.kernelMs/d.batches, "ms")
	res.set("serve.kernel_gflops", float64(fwdFLOPs)*d.items/(d.kernelMs*1e6), "GFLOP/s")
	res.set("serve.batch_mean", d.items/d.batches, "count")
	res.set("serve.queue_ms", d.queueMs/d.items, "ms")
	res.set("gateway.self_p50_ms", g50.Value, "ms")
	res.set("gateway.self_p99_ms", g99.Value, "ms")
	res.set("gateway.backend_share_max", shareMax, "ratio")
	res.set("gateway.retries", float64(gwAfter.Gateway.Retries-gwBefore.Gateway.Retries), "count")
	res.set("loadgen.late_p99_ms", lt.Value, "ms")
	res.set("serve_p99_ms", p99.Value, "ms")
	fillIdle(res)
	return res, nil
}
