# Development and CI entry points. CI (.github/workflows/ci.yml) invokes
# exactly these targets so local runs and the pipeline cannot drift.

GO ?= go

.PHONY: build build-bins test test-short test-race perfbench-test vet lint fuzz-smoke fmt fmt-check ci bench bench-compare profile serve smoke

build:
	$(GO) build ./...

# Link every cmd/* and examples/* binary (output discarded): facade
# refactors can never silently break the CLIs or examples.
build-bins:
	@for d in ./cmd/* ./examples/*; do \
		echo "build $$d"; \
		$(GO) build -o /dev/null $$d || exit 1; \
	done

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

test-race:
	$(GO) test -race ./...

# The repository benchmark (perfbench/, BENCHMARK.json) is a module of its
# own, so `go test ./...` at the root skips it. Its tests smoke-run every
# workload and check the golden result digests.
perfbench-test:
	$(GO) test -C perfbench ./...

vet:
	$(GO) vet ./...

# Invariant linting (docs/LINTS.md): the in-tree nanolint suite always
# runs; staticcheck and govulncheck join in when installed (they are not
# vendored, so offline environments skip them rather than fail).
lint:
	$(GO) run ./cmd/nanolint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipped"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipped"; \
	fi

# Short-budget fuzz pass over every hostile-input parser (docs/LINTS.md).
# Each target also runs its seed corpus as a plain test in `make test`.
FUZZTIME ?= 5s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzConfigUnmarshalJSON$$' -fuzztime $(FUZZTIME) ./internal/nano
	$(GO) test -run '^$$' -fuzz '^FuzzParseQLRU$$' -fuzztime $(FUZZTIME) ./internal/sim/policy
	$(GO) test -run '^$$' -fuzz '^FuzzParseMode$$' -fuzztime $(FUZZTIME) ./internal/sim/machine
	$(GO) test -run '^$$' -fuzz '^FuzzTraceMatchesStep$$' -fuzztime $(FUZZTIME) ./internal/sim/machine
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime $(FUZZTIME) ./internal/perfcfg
	$(GO) test -run '^$$' -fuzz '^FuzzSweepUnmarshalJSON$$' -fuzztime $(FUZZTIME) .

# One smoke pass over every benchmark (bench.txt: proves each still runs;
# one iteration is not data, so it never enters the artifact), plus
# stable multi-iteration measurements of the gated headlines (step
# throughput, the per-engine trace-mode series, and the cache-policy
# benchmarks), of the policy kernels inference drives, and of machine
# construction per Table I model, folded into the BENCH_10.json artifact
# CI uploads and gates on (the policy kernels and machine construction
# are recorded, not gated). On repeated measurements of one benchmark the
# fastest run wins, so the artifact is comparable across noisy machines.
bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' ./... > bench.txt; st=$$?; cat bench.txt; [ $$st -eq 0 ]
	$(GO) test -bench 'BenchmarkStepThroughput|BenchmarkEngineThroughput' -benchtime 2s -count 3 -run '^$$' ./internal/sim/machine > bench-step.txt; st=$$?; cat bench-step.txt; [ $$st -eq 0 ]
	$(GO) test -bench 'BenchmarkPolicyEngine' -benchtime 1s -count 3 -run '^$$' ./internal/sim/policy > bench-policy.txt; st=$$?; cat bench-policy.txt; [ $$st -eq 0 ]
	$(GO) test -bench 'BenchmarkTableIPolicies|BenchmarkFigure1AgeGraph|BenchmarkSetDueling|BenchmarkPolicyCampaign' -benchtime 1x -count 3 -run '^$$' . > bench-cache.txt; st=$$?; cat bench-cache.txt; [ $$st -eq 0 ]
	$(GO) test -bench 'BenchmarkMachineNew' -benchmem -benchtime 1s -count 3 -run '^$$' ./internal/uarch > bench-machine.txt; st=$$?; cat bench-machine.txt; [ $$st -eq 0 ]
	$(GO) run ./scripts/benchjson -in bench-step.txt -in bench-policy.txt -in bench-cache.txt -in bench-machine.txt -out BENCH_10.json

# Gate: fail on a >10% regression against the committed baseline
# (bench/BENCH_BASELINE.json — see bench/README.md) in step throughput
# (ns/instr, including the per-engine trace-mode series) and the wall
# time (ns/op) of the cache-policy simulation benchmarks. The step
# baseline is the trace-engine capture, so the gate catches any slide
# back toward per-µop dispatch; the cache baselines are the seq-replay
# fast-path capture, guarding the campaign-scale speedups.
bench-compare: BENCH_10.json
	$(GO) run ./scripts/benchjson -baseline bench/BENCH_BASELINE.json -against BENCH_10.json \
		-bench BenchmarkStepThroughput \
		-bench BenchmarkEngineThroughput \
		-bench BenchmarkTableIPolicies \
		-bench BenchmarkFigure1AgeGraph \
		-bench BenchmarkSetDueling \
		-bench BenchmarkPolicyCampaign

BENCH_10.json:
	$(MAKE) bench

# CPU and allocation profiles of the two hot paths — the cache-policy
# sweeps and the µop step loop — written to bench/profiles/ next to the
# test binaries pprof needs for symbols. Reading them: docs/PROFILING.md.
profile:
	mkdir -p bench/profiles
	$(GO) test -bench 'BenchmarkTableIPolicies|BenchmarkFigure1AgeGraph|BenchmarkSetDueling' \
		-benchtime 1x -run '^$$' -o bench/profiles/cache.test \
		-cpuprofile bench/profiles/cache.cpu.pprof \
		-memprofile bench/profiles/cache.alloc.pprof .
	$(GO) test -bench BenchmarkStepThroughput -benchtime 2s -run '^$$' \
		-o bench/profiles/step.test \
		-cpuprofile bench/profiles/step.cpu.pprof \
		-memprofile bench/profiles/step.alloc.pprof ./internal/sim/machine

# Run the HTTP benchmarking service locally (wire contract: docs/API.md).
serve:
	$(GO) run ./cmd/nanobenchd

# End-to-end service smoke: build nanobenchd, start it, diff live
# /v1/healthz and /v1/run responses against the documented examples,
# drive a sweep through the async jobs API, and scrape /metrics.
smoke:
	bash scripts/serve-smoke.sh

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

ci: fmt-check vet lint build build-bins test-short test perfbench-test
