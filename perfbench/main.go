// Command perfbench is the repository's benchmark: it runs one named
// workload against the CosmoFlow training and serving stack, checks the
// outputs, and prints the measured metrics as one JSON object on the last
// line of standard output.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash perfbench/run.sh --workload train-1rank --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the traced variant and reports the per-layer metrics instead. See
// README.md for every metric and workload.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// set records a metric. A non-finite value cannot be printed as JSON; it
// is reported as 0 and marks the run incorrect.
func (r *result) set(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", name, v)
		r.Correct = false
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

// perLayerUnits lists every per-layer metric with its unit, in the order
// BENCHMARK.json declares them. A traced run reports all of them; a layer
// the workload does not exercise reads 0.
var perLayerUnits = []struct{ name, unit string }{
	{"nn.forward_ms", "ms"},
	{"nn.backward_ms", "ms"},
	{"nn.forward_gflops", "GFLOP/s"},
	{"nn.backward_gflops", "GFLOP/s"},
	{"nn.repack_ms", "ms"},
	{"optim.step_ms", "ms"},
	{"optim.ns_per_param", "ns"},
	{"data.next_ms", "ms"},
	{"train.grad_copy_ms", "ms"},
	{"train.step_p50_ms", "ms"},
	{"train.step_p95_ms", "ms"},
	{"trace.unattributed_ms", "ms"},
	{"trace.overhead_pct", "%"},
	{"comm.allreduce_ms", "ms"},
	{"comm.skew_ms", "ms"},
	{"comm.xfer_ms", "ms"},
	{"comm.bytes_per_step", "bytes"},
	{"comm.msgs_per_step", "count"},
	{"client.encode_us", "us"},
	{"client.decode_us", "us"},
	{"serve.handler_p50_ms", "ms"},
	{"serve.handler_p99_ms", "ms"},
	{"serve.kernel_ms", "ms"},
	{"serve.kernel_gflops", "GFLOP/s"},
	{"serve.batch_mean", "count"},
	{"serve.queue_ms", "ms"},
	{"gateway.self_p50_ms", "ms"},
	{"gateway.self_p99_ms", "ms"},
	{"gateway.backend_share_max", "ratio"},
	{"gateway.retries", "count"},
	{"loadgen.late_p99_ms", "ms"},
	{"serve_p99_ms", "ms"},
}

// fillIdle reports 0 for every per-layer metric the traced run did not
// measure: those layers are not on the workload's path.
func fillIdle(res *result) {
	for _, m := range perLayerUnits {
		if _, ok := res.Metrics[m.name]; !ok {
			res.set(m.name, 0, m.unit)
		}
	}
}

// options are the command-line settings every workload receives.
type options struct {
	Seed    int64
	Seconds float64
	Trace   bool
	WorkDir string // scratch space for datasets; removed at exit
}

// workload is one named benchmark scenario. Ranks × Workers is the number
// of compute threads it keeps busy; it must fit in GOMAXPROCS.
type workload struct {
	Name    string
	Why     string
	Ranks   int
	Workers int
	Config  any
	Run     func(o options) (*result, error)
}

var workloads = []workload{
	{
		Name: "train-1rank", Ranks: 1, Workers: 2, Config: train1Rank,
		Why: "conv forward/backward and the optimizer do nearly all the work; comm is a no-op. The plain single-worker baseline.",
		Run: func(o options) (*result, error) { return runTrain(train1Rank, o) },
	},
	{
		Name: "train-2rank-tcp", Ranks: 2, Workers: 1, Config: train2RankTCP,
		Why: "every step moves the 1.21 MB gradient through comm/dist/wire over loopback TCP; single-threaded per-rank compute.",
		Run: func(o options) (*result, error) { return runTrain(train2RankTCP, o) },
	},
	{
		Name: "serve-open", Ranks: serveOpen.Backends, Workers: serveOpen.Replicas * serveOpen.WorkersPerReplica, Config: serveOpen,
		Why: "the inference path (InferBatch at small batches, batcher queueing, HTTP/CFT1, routing) with no backward pass, optimizer or comm.",
		Run: func(o options) (*result, error) { return runServe(serveOpen, o) },
	},
}

// fits refuses a workload that would run more compute threads than procs:
// an oversubscribed run measures contention, not the code.
func (w *workload) fits(procs int) error {
	if threads := w.Ranks * w.Workers; threads > procs {
		return fmt.Errorf("%s runs %d ranks × %d workers = %d compute threads on GOMAXPROCS %d; refusing to oversubscribe",
			w.Name, w.Ranks, w.Workers, threads, procs)
	}
	return nil
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: train-1rank, train-2rank-tcp or serve-open")
	seed := flag.Int64("seed", 1, "seed every generated input derives from")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 runs the traced variant and reports per-layer metrics")
	workDir := flag.String("workdir", ".bench_build", "directory for scratch datasets")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].Name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	}
	if err := w.fits(runtime.GOMAXPROCS(0)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	describe(w, *seed, *trace)

	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(*workDir, "run-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	res, err := w.Run(options{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, WorkDir: dir})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.Name, err)
		return 1
	}
	if *trace == 0 {
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		res.set("peak_rss_mb", rss, "MB")
	}
	res.Correct = res.Correct && res.Failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

// describe writes the host facts and the workload's full configuration to
// standard error, so every recorded run states what it measured.
func describe(w *workload, seed int64, trace int) {
	desc, _ := json.Marshal(map[string]any{
		"workload":   w.Name,
		"why":        w.Why,
		"seed":       seed,
		"trace":      trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"config":     w.Config,
	})
	fmt.Fprintf(os.Stderr, "perfbench: %s\n", desc)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 3 && fields[0] == "VmHWM:" && fields[2] == "kB" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0, fmt.Errorf("reading peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("reading peak RSS: no VmHWM line in /proc/self/status")
}

// deadline returns the moment a run measuring for o.Seconds from start
// should stop starting new work.
func (o options) deadline(start time.Time) time.Time {
	return start.Add(time.Duration(o.Seconds * float64(time.Second)))
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
