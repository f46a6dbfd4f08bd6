# Development targets for the dynp reproduction. Everything is plain Go;
# the Makefile only bundles the common invocations. `make ci` mirrors the
# GitHub Actions pipeline (.github/workflows/ci.yml) locally.

GO ?= go

.PHONY: all ci build vet fmt-check test race soak soak-disk bench bench-smoke bench-scale bench-scale-check bench-recover bench-recover-check bench-quote bench-quote-check bench-e2e bench-e2e-agree fuzz repro repro-full ablations golden golden-check golden-check-registered golden-check-full clean

all: build vet test

# Everything the CI workflow gates merges on, minus the smoke jobs.
ci: build vet fmt-check test race

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Fails when any file is not gofmt-clean (mirrored by the CI build job).
fmt-check:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt -l found unformatted files:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

# -shuffle=on randomises test (and package-level example) execution
# order, flushing out inter-test state dependencies; the seed is printed
# on failure for reproduction with -shuffle=<seed>.
test:
	$(GO) test -shuffle=on ./...

# Race-check everything. The concurrent pieces — the work-stealing shard
# pool, the experiment sweep, sim.RunParallel, the RMS snapshot readers,
# the chaos harness — all have tests that exercise real concurrency, and
# the sequential packages are cheap enough that whole-module coverage
# costs little extra.
race:
	$(GO) test -race ./...

# Deterministic chaos soak: concurrent clients through a fault-injecting
# network while processors fail and recover, race detector on. The fault
# schedules are seeded, so a failure here reproduces exactly.
soak:
	$(GO) test -race -count=1 -run TestChaosSoak -v ./internal/rms/chaos/

# Crash-recovery soak: a real dynpd process under protocol load with
# seeded disk faults eating at its journal, kill -9'd and restarted every
# cycle. Asserts byte-identical restored state and no lost or
# double-finished jobs. Seeded, so a failure reproduces.
soak-disk:
	$(GO) test -race -count=1 -run TestDiskFaultRecoverySoak -v ./internal/rms/chaos/

bench:
	$(GO) test -bench=. -benchmem ./...

# One-iteration pass over the self-tuning benchmarks; CI uploads the
# output as an artifact for trajectory tracking.
bench-smoke:
	$(GO) test -bench=SelfTuner -benchtime=1x ./... | tee bench-smoke.txt

# Refresh the committed multi-core scaling snapshot: experiment-sweep and
# sim.RunParallel jobs/s at GOMAXPROCS 1/2/4/N.
bench-scale:
	$(GO) run ./cmd/benchscale -out BENCH_scale.json

# Fail when a p-core-over-1-core scaling ratio regressed >10% against the
# committed BENCH_scale.json, or the experiment sweep scales under 2x at
# 4 cores. Ratios only, and only for core counts the machine physically
# has, so the gate is machine-neutral. CI runs this on a multi-core
# runner in the bench-scale job.
bench-scale-check:
	$(GO) run ./cmd/benchscale -check BENCH_scale.json

# Refresh the committed crash-recovery latency snapshot: checkpointed
# restart vs full genesis replay at a 10k-event journal history.
bench-recover:
	$(GO) run ./cmd/benchrecover -out BENCH_recover.json

# Fail when the checkpoint-over-genesis recovery speedup fell below 10x
# or regressed >25% against the committed BENCH_recover.json. Ratios, not
# absolute ns, so the gate is machine-neutral. CI runs this in the
# bench-smoke job.
bench-recover-check:
	$(GO) run ./cmd/benchrecover -check BENCH_recover.json

# Refresh the committed digital-twin quote snapshot: quote latency plus
# mutator latency with and without concurrent quote load.
bench-quote:
	$(GO) run ./cmd/benchquote -out BENCH_quote.json

# Fail when concurrent quotes inflate mutator latency beyond the
# allowance (isolation broke: a quote path took the scheduling lock).
# Ratios, not absolute ns, so the gate is machine-neutral. CI runs this
# in the bench-smoke job.
bench-quote-check:
	$(GO) run ./cmd/benchquote -check BENCH_quote.json

# The repository's one end-to-end benchmark (BENCHMARK.json is its
# contract, benchmark/README.md its manual), untraced: every workload, or
# the one named by WORKLOAD= (make bench-e2e WORKLOAD=sweep-paper). All of
# them at once needs GOMAXPROCS >= 2.
WORKLOAD ?= all
bench-e2e:
	$(GO) run ./benchmark -workload $(WORKLOAD)

# Two sets of runs of the same code, compared against the metrics'
# bounds: how steady the benchmark is on this host.
bench-e2e-agree:
	$(GO) run ./benchmark -agree

# FuzzBuildVsNaive caps input minimisation: its inputs are whole queues
# (hundreds of bytes), and with the default 60 s minimisation budget per
# new-coverage input a 30 s run spends itself minimising after a few
# thousand executions instead of exploring (~600 execs/s with the cap).
# FuzzTunerLockstep's inputs are whole event streams: same cap, same reason.
fuzz:
	$(GO) test -fuzz=FuzzRead -fuzztime=30s ./internal/swf/
	$(GO) test -fuzz=FuzzServeConn -fuzztime=30s ./internal/rms/
	$(GO) test -fuzz=FuzzJournalRecover -fuzztime=30s ./internal/rms/
	$(GO) test -fuzz=FuzzProfileVsReference -fuzztime=30s ./internal/profile/
	$(GO) test -fuzz=FuzzBuildVsNaive -fuzztime=30s -fuzzminimizetime=10x ./internal/plan/
	$(GO) test -fuzz=FuzzTunerLockstep -fuzztime=30s -fuzzminimizetime=10x ./internal/sim/
	$(GO) test -fuzz=FuzzStaticLockstep -fuzztime=30s ./internal/sim/

# Reduced-scale reproduction of every table and figure (about 4 minutes).
repro:
	$(GO) run ./cmd/paper

# Paper-scale reproduction: 10 sets x 10,000 jobs (about 50 minutes).
repro-full:
	$(GO) run ./cmd/paper -full

ablations:
	$(GO) run ./cmd/paper -ablation all -shrinks 1.0,0.8

# Regenerate the committed golden outputs after an *intentional*
# behavioural change (reduced scale ~4 min, full scale ~50 min on one
# core). Refactors must leave both files byte-identical instead.
golden:
	$(GO) run ./cmd/paper > paper_output.txt
	$(GO) run ./cmd/paper -full > paper_output_full.txt

# Byte-compare a fresh reduced-scale run of cmd/paper against the
# committed golden output: any change to scheduling behaviour — however
# small — fails here. CI runs this on every push.
golden-check:
	$(GO) run ./cmd/paper > paper_output.check.txt
	cmp paper_output.check.txt paper_output.txt
	rm -f paper_output.check.txt

# Like golden-check, but with a custom policy and decider registered (and
# never selected): registration alone must not perturb a single byte of
# the paper pipeline. CI runs this next to golden-check.
golden-check-registered:
	$(GO) run ./cmd/paper -register-inactive > paper_output.check.txt
	cmp paper_output.check.txt paper_output.txt
	rm -f paper_output.check.txt

# Paper-scale variant of golden-check (~50 minutes; the CI workflow runs
# it on schedule and on manual dispatch rather than per push).
golden-check-full:
	$(GO) run ./cmd/paper -full > paper_output_full.check.txt
	cmp paper_output_full.check.txt paper_output_full.txt
	rm -f paper_output_full.check.txt

clean:
	$(GO) clean ./...
	rm -f paper_output.check.txt paper_output_full.check.txt
