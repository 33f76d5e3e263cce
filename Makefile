# Tier-1 verification plus formatting/vet gates. `make check` is the fast
# everything-must-pass target for pre-commit hooks; `make ci` mirrors
# .github/workflows/ci.yml exactly (every CI job runs one of these
# targets), so local and CI runs cannot drift.

GO ?= go

.PHONY: check ci fmt vet build test race bench bench-smoke serve-smoke api-smoke dist-smoke data-smoke fuzz-smoke gateway-smoke tenancy-smoke metrics-smoke timeline-smoke bench-json bench-compare bench-archive bench-trend

check: fmt vet build test

ci: fmt vet build test race fuzz-smoke bench-smoke serve-smoke api-smoke dist-smoke data-smoke gateway-smoke tenancy-smoke metrics-smoke timeline-smoke bench-json bench-compare

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-detect the concurrency-bearing packages: the serving subsystem
# (replica pools, micro-batcher), the gateway (probe loops, hedged
# requests, scatter-gather), the batched kernels (shared worker pools,
# recycled buffers), the communication layer (helper-team collectives,
# TCP reader/heartbeat goroutines), the streaming loader (prefetch
# goroutines), the training loop (rank goroutines, overlapped
# allreduce), and the timeline rings.
race:
	$(GO) test -race ./internal/serve ./internal/gateway ./internal/nn ./internal/comm ./internal/dist ./internal/data ./internal/train ./internal/obsv

# Short fuzz of the decoders that read untrusted bytes: the wire codec
# (header-bounded size checks, truncated frames, dims/dtype abuse), the
# training-state section (bounded counts, canonical re-encoding), the
# dataset manifest (no panic, accepted manifests round-trip) and the model
# checkpoint (no panic, a failed load leaves the weights unchanged,
# accepted checkpoints re-encode to a prefix of the input).
# Seconds, not minutes — the corpus seeds cover the known-nasty shapes
# and CI just shakes for regressions.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadTensor -fuzztime 10s ./internal/serve/wire
	$(GO) test -run '^$$' -fuzz FuzzLoadTrainState -fuzztime 10s ./internal/train
	$(GO) test -run '^$$' -fuzz FuzzParseManifest -fuzztime 10s ./internal/data
	$(GO) test -run '^$$' -fuzz FuzzLoadCheckpoint -fuzztime 10s ./internal/nn

# Full benchmark sweep (minutes); see EXPERIMENTS.md for the record.
bench:
	$(GO) test -run xxx -bench . -benchtime 1x .

# One-pass serving + batched-inference benchmarks: a smoke signal that the
# hot path still runs, cheap enough for every CI run.
bench-smoke:
	$(GO) test -run xxx -bench 'Serving|InferBatch' -benchtime 1x .

# End-to-end serving smoke: daemon + >=64-request concurrent load, then a
# graceful SIGTERM drain (the ISSUE acceptance run).
serve-smoke:
	$(GO) build -o /tmp/cosmoflow-serve ./cmd/cosmoflow-serve
	$(GO) build -o /tmp/cosmoflow-loadgen ./cmd/cosmoflow-loadgen
	/tmp/cosmoflow-serve -addr 127.0.0.1:18080 -dim 16 -base 4 & \
		pid=$$!; \
		for i in $$(seq 1 50); do \
			curl -sf http://127.0.0.1:18080/healthz >/dev/null 2>&1 && break; \
			sleep 0.2; \
		done; \
		/tmp/cosmoflow-loadgen -addr http://127.0.0.1:18080 -n 128 -c 8 -dim 16; \
		rc=$$?; kill -TERM $$pid; wait $$pid; exit $$rc

# v1 API smoke: daemon + curl over both wire encodings, asserting status
# codes on predict, model lifecycle (list/load/unload), and the error
# surface (scripts/api_smoke.sh).
api-smoke:
	$(GO) build -o /tmp/cosmoflow-serve ./cmd/cosmoflow-serve
	$(GO) build -o /tmp/cosmoflow-loadgen ./cmd/cosmoflow-loadgen
	sh scripts/api_smoke.sh

# Distributed training smoke: a 4-process TCP world must reproduce the
# in-process run's losses bit-for-bit, and a mid-run world kill must
# relaunch and resume from the checkpoint (scripts/dist_smoke.sh).
dist-smoke:
	$(GO) build -o /tmp/cosmoflow-train ./cmd/cosmoflow-train
	sh scripts/dist_smoke.sh

# Streaming-data smoke: datagen writes a sharded TFRecord dataset with a
# manifest, then a 2-process world streams it — locally and over HTTP from
# cosmoflow-shardd — bit-identical to the in-process streaming run, and a
# killed world resumes from its checkpoint (scripts/data_smoke.sh).
data-smoke:
	$(GO) build -o /tmp/cosmoflow-train ./cmd/cosmoflow-train
	$(GO) build -o /tmp/cosmoflow-datagen ./cmd/cosmoflow-datagen
	$(GO) build -o /tmp/cosmoflow-shardd ./cmd/cosmoflow-shardd
	sh scripts/data_smoke.sh

# Fleet scrape-surface smoke: all three daemons up, every GET /metrics
# parser-validated as Prometheus text exposition (cosmoflow-metrics wraps
# obsv.ParseExposition), then traffic through each and known counters
# asserted to have moved (scripts/metrics_smoke.sh).
metrics-smoke:
	$(GO) build -o /tmp/cosmoflow-serve ./cmd/cosmoflow-serve
	$(GO) build -o /tmp/cosmoflow-gateway ./cmd/cosmoflow-gateway
	$(GO) build -o /tmp/cosmoflow-shardd ./cmd/cosmoflow-shardd
	$(GO) build -o /tmp/cosmoflow-datagen ./cmd/cosmoflow-datagen
	$(GO) build -o /tmp/cosmoflow-loadgen ./cmd/cosmoflow-loadgen
	$(GO) build -o /tmp/cosmoflow-metrics ./cmd/cosmoflow-metrics
	sh scripts/metrics_smoke.sh

# Training-timeline smoke: a traced 4-process world with an injected 10ms
# straggler must train bit-identically to the untraced baseline, its trace
# must validate as Chrome trace-event JSON, and the straggler report must
# name the slowed rank (scripts/timeline_smoke.sh).
timeline-smoke:
	$(GO) build -o /tmp/cosmoflow-train ./cmd/cosmoflow-train
	$(GO) build -o /tmp/cosmoflow-tracecat ./cmd/cosmoflow-tracecat
	sh scripts/timeline_smoke.sh

# Benchmark trajectory: collect one BENCH_<area>.json per area (kernel,
# dist, data, serve, gateway, roofline, train) under bench/out with the
# cosmoflow-bench/v1 schema (scripts/bench_collect.sh), then gate against
# the committed bench/baseline. BENCH_THRESHOLD is the regression
# tolerance in percent — 5 locally; CI uses a higher value because the
# committed baselines were collected on a different machine class.
BENCH_THRESHOLD ?= 5

bench-json:
	$(GO) build -o /tmp/cosmoflow-bench ./cmd/cosmoflow-bench
	$(GO) build -o /tmp/cosmoflow-serve ./cmd/cosmoflow-serve
	$(GO) build -o /tmp/cosmoflow-gateway ./cmd/cosmoflow-gateway
	$(GO) build -o /tmp/cosmoflow-loadgen ./cmd/cosmoflow-loadgen
	sh scripts/bench_collect.sh

bench-compare:
	$(GO) build -o /tmp/cosmoflow-benchdiff ./cmd/cosmoflow-benchdiff
	/tmp/cosmoflow-benchdiff -baseline bench/baseline -current bench/out -threshold $(BENCH_THRESHOLD)

# Trend history: archive the freshly collected bench/out reports into the
# per-SHA history (bench/history/<area>/<sha>.json; re-archiving a SHA
# overwrites), and render the metric-over-commits tables from it.
bench-archive:
	$(GO) build -o /tmp/cosmoflow-benchdiff ./cmd/cosmoflow-benchdiff
	/tmp/cosmoflow-benchdiff -archive bench/history -current bench/out

bench-trend:
	$(GO) build -o /tmp/cosmoflow-benchdiff ./cmd/cosmoflow-benchdiff
	/tmp/cosmoflow-benchdiff -trend -history bench/history

# Cluster serving smoke: 3 backends + gateway, predict over both
# encodings (bit-identity against a direct backend), lifecycle fan-out,
# then kill one backend under load and assert zero client-visible
# failures after ejection (scripts/gateway_smoke.sh).
gateway-smoke:
	$(GO) build -o /tmp/cosmoflow-serve ./cmd/cosmoflow-serve
	$(GO) build -o /tmp/cosmoflow-gateway ./cmd/cosmoflow-gateway
	$(GO) build -o /tmp/cosmoflow-loadgen ./cmd/cosmoflow-loadgen
	$(GO) build -o /tmp/cosmoflow-gwctl ./cmd/cosmoflow-gwctl
	sh scripts/gateway_smoke.sh

# Multi-tenant + autoscaling smoke: a 3-class overload must keep premium
# p99 flat while best-effort sheds with 429s and nothing 5xxes, and a
# supervised gateway (no static backends) must scale 1 -> max under load
# and retire back to min when idle, with zero client-visible failures
# (scripts/tenancy_smoke.sh).
tenancy-smoke:
	$(GO) build -o /tmp/cosmoflow-serve ./cmd/cosmoflow-serve
	$(GO) build -o /tmp/cosmoflow-gateway ./cmd/cosmoflow-gateway
	$(GO) build -o /tmp/cosmoflow-loadgen ./cmd/cosmoflow-loadgen
	$(GO) build -o /tmp/cosmoflow-gwctl ./cmd/cosmoflow-gwctl
	sh scripts/tenancy_smoke.sh
