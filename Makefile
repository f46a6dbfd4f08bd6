# Development targets for the dynp reproduction. Everything is plain Go;
# the Makefile only bundles the common invocations. `make ci` mirrors the
# GitHub Actions pipeline (.github/workflows/ci.yml) locally.

GO ?= go

.PHONY: all ci build vet fmt-check test race soak soak-disk bench bench-smoke bench-e2e bench-e2e-agree fuzz repro repro-full ablations golden golden-check golden-check-registered golden-check-ablation golden-check-fairness golden-check-full clean

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

# One-iteration pass over the self-tuning benchmarks; CI uploads the
# output as an artifact for trajectory tracking. A -bench pattern that
# matches nothing exits 0, so the target fails when no benchmark ran.
bench-smoke:
	$(GO) test -bench=SelfTuner -benchtime=1x ./... | tee bench-smoke.txt
	@grep -q '^Benchmark' bench-smoke.txt || { echo "bench-smoke: -bench=SelfTuner matched no benchmark"; exit 1; }

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
# simulates whole job sets per input: same cap, same reason. FuzzBaseReset
# replays whole running-set histories and stalls the same way uncapped.
fuzz:
	$(call fuzz,FuzzRead,./internal/swf/)
	$(call fuzz,FuzzServeConn,./internal/rms/)
	$(call fuzz,FuzzWireCodec,./internal/rms/,-fuzzminimizetime=10x)
	$(call fuzz,FuzzJournalRecover,./internal/rms/)
	$(call fuzz,FuzzProfileVsReference,./internal/profile/)
	$(call fuzz,FuzzBuildVsNaive,./internal/plan/,-fuzzminimizetime=10x)
	$(call fuzz,FuzzBaseReset,./internal/plan/,-fuzzminimizetime=10x)
	$(call fuzz,FuzzTunerLockstep,./internal/sim/,-fuzzminimizetime=10x)
	$(call fuzz,FuzzStaticLockstep,./internal/sim/)
	$(call fuzz,FuzzRunGroup,./internal/sim/,-fuzzminimizetime=10x)
	@rm -f fuzz.out

# Reduced-scale reproduction of every table and figure. The built
# binary took 10.1 s and 9.1 s wall, 19.2 s and 17.4 s CPU on a 2-core
# host with go1.24.0 (the binary before the base profile was kept across
# events: 11.3 s and 11.7 s wall, 21.5 s and 22.3 s CPU, alternating in
# the same hour). The paper scale (repro-full, the built binary, one
# run) took 3 min 18 s wall and 6 min 25 s CPU on the same host, against
# 3 min 32 s wall and 6 min 51 s CPU before; per trace (`-full -traces
# X`, one run each) CTC took 85 s, KTH 29 s, LANL 17 s and SDSC 65 s
# (before: 93, 35, 18 and 64 s). `make golden-check-full` took 3 min
# 23 s wall, build included. The ablations (`make ablations`' command,
# the built binary) took 16.4 s and 15.4 s wall, 28.6 s and 27.2 s CPU
# (before: 18.4 s and 18.3 s, 31.8 s and 31.7 s).
repro:
	$(GO) run ./cmd/paper

# Paper-scale reproduction: 10 sets x 10,000 jobs.
repro-full:
	$(GO) run ./cmd/paper -full

ablations:
	$(GO) run ./cmd/paper -ablation all -shrinks 1.0,0.8

# Regenerate the committed golden outputs after an *intentional*
# behavioural change (timings under repro above). Refactors must leave
# both files byte-identical instead.
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

# Byte-compare a fresh `make ablations` run against the committed
# ablation_output.txt. The ablation sweeps hold the largest groups of
# co-simulated deciders (sim.RunGroup: pref, decider, metric), so this
# is their byte-level guard. CI runs this next to golden-check.
golden-check-ablation:
	$(GO) run ./cmd/paper -ablation all -shrinks 1.0,0.8 > ablation_output.check.txt
	cmp ablation_output.check.txt ablation_output.txt
	rm -f ablation_output.check.txt

# Byte-compare a fresh fairness study (cmd/paper -fairness) against the
# committed fairness_output.txt. It is the one golden of the float-keyed
# PSBS orders, planned by static drivers and by the adaptive decider. CI
# runs this next to golden-check.
golden-check-fairness:
	$(GO) run ./cmd/paper -fairness > fairness_output.check.txt
	cmp fairness_output.check.txt fairness_output.txt
	rm -f fairness_output.check.txt

# Paper-scale variant of golden-check (the CI workflow runs it on
# schedule and on manual dispatch rather than per push).
golden-check-full:
	$(GO) run ./cmd/paper -full > paper_output_full.check.txt
	cmp paper_output_full.check.txt paper_output_full.txt
	rm -f paper_output_full.check.txt

clean:
	$(GO) clean ./...
	rm -f paper_output.check.txt paper_output_full.check.txt ablation_output.check.txt fairness_output.check.txt fuzz.out
