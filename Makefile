# Development targets for the dynp reproduction. Everything is plain Go;
# the Makefile only bundles the common invocations. `make ci` mirrors the
# GitHub Actions pipeline (.github/workflows/ci.yml) locally.

GO ?= go

.PHONY: all ci build vet fmt-check test race soak soak-disk bench bench-smoke bench-e2e bench-e2e-agree fuzz repro ablations golden golden-check golden-check-registered golden-check-ablation golden-check-fairness clean

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

# Race-check everything. The concurrent pieces — the shard pool, the
# experiment sweep, sim.RunParallel, the RMS snapshot readers, the chaos
# harness — all have tests that exercise real concurrency, and the
# sequential packages are cheap enough that whole-module coverage costs
# little extra.
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

# One-iteration pass over the self-tuning benchmarks, the rms hot-path
# ones (Deliver, StatusCodec, Quote), the engine's event loop
# (EngineEventLoop), the simulator's event loop over a static and a dynP
# driver (Simulate) and the trace models' generator setup (Calibrate),
# allocations printed; CI uploads the output
# as an artifact for trajectory tracking. A -bench pattern that matches
# nothing exits 0, so the target fails when a name in it ran no benchmark.
bench-smoke:
	$(GO) test -bench='SelfTuner|Deliver|StatusCodec|Quote|Checkpoint|EngineEventLoop|Simulate|Calibrate' -benchmem -benchtime=1x ./... | tee bench-smoke.txt
	@for b in SelfTuner Deliver StatusCodec Quote Checkpoint EngineEventLoop Simulate Calibrate; do \
		grep -q "^Benchmark.*$$b" bench-smoke.txt || { echo "bench-smoke: -bench=$$b matched no benchmark"; exit 1; }; \
	done

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

# One fuzz target for 30 s. A -fuzz pattern that matches nothing exits 0
# with a warning, so a target that moved or was renamed would go unfuzzed
# in silence: the run must report a non-zero execution count.
# $(call fuzz,Target,package[,extra flags])
define fuzz
	$(GO) test -fuzz='^$(1)$$' -fuzztime=30s $(3) $(2) > fuzz.out 2>&1; status=$$?; cat fuzz.out; \
	[ $$status -eq 0 ] && grep -Eq 'execs: [1-9]' fuzz.out || { echo "fuzz: $(1) in $(2) failed or executed nothing"; exit 1; }
endef

# FuzzBuildVsNaive caps input minimisation: its inputs are whole queues
# (hundreds of bytes), and with the default 60 s minimisation budget per
# new-coverage input a 30 s run spends itself minimising after a few
# thousand executions instead of exploring (~600 execs/s with the cap).
# FuzzTunerLockstep's inputs are whole event streams: same cap, same reason.
# FuzzWireCodec finds new coverage in most of its first minute's inputs
# and stalls at 0 execs/s minimising them without the cap. FuzzRunGroup
# simulates whole job sets per input, each also through the naive event
# loop of plantest.Simulate: same cap, same reason. FuzzBaseReset
# replays whole running-set histories and stalls the same way uncapped.
# FuzzJournalRecover opens and replays a whole journal per input; uncapped
# it stalls at 0 execs/s minimising within its first hundred executions.
# FuzzDeliverLockstep opens a journal per input too: same cap, same reason.
fuzz:
	$(call fuzz,FuzzRead,./internal/swf/)
	$(call fuzz,FuzzServeConn,./internal/rms/)
	$(call fuzz,FuzzWireCodec,./internal/rms/,-fuzzminimizetime=10x)
	$(call fuzz,FuzzJournalRecover,./internal/rms/,-fuzzminimizetime=10x)
	$(call fuzz,FuzzDeliverLockstep,./internal/rms/,-fuzzminimizetime=10x)
	$(call fuzz,FuzzProfileVsReference,./internal/profile/)
	$(call fuzz,FuzzPolicyTotalOrder,./internal/policy/)
	$(call fuzz,FuzzBuildVsNaive,./internal/plan/,-fuzzminimizetime=10x)
	$(call fuzz,FuzzBaseReset,./internal/plan/,-fuzzminimizetime=10x)
	$(call fuzz,FuzzTunerLockstep,./internal/sim/,-fuzzminimizetime=10x)
	$(call fuzz,FuzzStaticLockstep,./internal/sim/)
	$(call fuzz,FuzzRunGroup,./internal/sim/,-fuzzminimizetime=10x)
	@rm -f fuzz.out

# The paper's reproduction of every table and figure: 10 sets x 10,000
# jobs per trace. On a 2-core host with go1.24.0, one run each:
# `make golden-check` took 3 min 23 s wall and 6.5 min CPU with
# `go run`, 3 min 22 s and 6.5 min with the built binary;
# `make golden-check-registered` took 3 min 19 s and 6.4 min with
# `go run`, 3 min 28 s and 6.7 min with the built binary. About two
# thirds of it is the static FCFS and LJF baselines, mostly at CTC 0.6
# and 0.7: timing every cell with one 10,000-job set each (one worker),
# static LJF took 37 % and static FCFS 27 % of the CPU, the dynP group
# 34 % and static SJF 2 % (ROADMAP item 2). `make golden-check-ablation`
# took 15 s wall and `make golden-check-fairness` 4 s.
repro:
	$(GO) run ./cmd/paper

# The ablation and fairness studies run at 5 sets x 2,500 jobs, the size
# EXPERIMENTS.md documents them at.
ablations:
	$(GO) run ./cmd/paper -ablation all -shrinks 1.0,0.8 -sets 5 -jobs 2500

# Regenerate the committed paper_output.txt after an *intentional*
# behavioural change (timings under repro above). Refactors must leave it
# byte-identical instead.
golden:
	$(GO) run ./cmd/paper > paper_output.txt

# $(call golden_cmp,fresh,golden) fails on any byte difference between a
# fresh run and its committed golden, trailing newline included, and
# prints the head of their unified diff: the differing table rows, which
# carry the trace name. The fresh file stays behind on failure.
define golden_cmp
	@cmp -s $(2) $(1) || { diff -u $(2) $(1) | head -n 40; echo "golden: $(1) differs from $(2)"; exit 1; }
	rm -f $(1)
endef

# Byte-compare a fresh paper run of cmd/paper against the committed
# golden output: any change to scheduling behaviour — however small —
# fails here. CI runs this on every push.
golden-check:
	$(GO) run ./cmd/paper > paper_output.check.txt
	$(call golden_cmp,paper_output.check.txt,paper_output.txt)

# Like golden-check, but with a custom policy and decider registered (and
# never selected): registration alone must not perturb a single byte of
# the paper pipeline. CI runs this next to golden-check.
golden-check-registered:
	$(GO) run ./cmd/paper -register-inactive > paper_output.check.txt
	$(call golden_cmp,paper_output.check.txt,paper_output.txt)

# Byte-compare a fresh `make ablations` run against the committed
# ablation_output.txt. The ablation sweeps hold the largest groups of
# co-simulated deciders (sim.RunGroup: pref, decider, metric), so this
# is their byte-level guard. CI runs this next to golden-check.
golden-check-ablation:
	$(GO) run ./cmd/paper -ablation all -shrinks 1.0,0.8 -sets 5 -jobs 2500 > ablation_output.check.txt
	$(call golden_cmp,ablation_output.check.txt,ablation_output.txt)

# Byte-compare a fresh fairness study (cmd/paper -fairness) against the
# committed fairness_output.txt. It is the one golden of the float-keyed
# PSBS orders, planned by static drivers and by the adaptive decider. CI
# runs this next to golden-check.
golden-check-fairness:
	$(GO) run ./cmd/paper -fairness -sets 5 -jobs 2500 > fairness_output.check.txt
	$(call golden_cmp,fairness_output.check.txt,fairness_output.txt)

clean:
	$(GO) clean ./...
	rm -f paper_output.check.txt ablation_output.check.txt fairness_output.check.txt fuzz.out
