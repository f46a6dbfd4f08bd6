// Command benchquote measures the digital-twin quote service and its
// isolation promise: it loads a quote-enabled scheduler with a
// deterministic mix of running and waiting jobs, then times (a) a quote
// itself and (b) a mutator round trip with and without four quote
// goroutines hammering the scheduler. The measurements land in a JSON
// snapshot (BENCH_quote.json) so CI can fail the build if quotes ever
// start blocking mutators.
//
//	benchquote -out BENCH_quote.json
//	benchquote -check BENCH_quote.json   # compare a fresh run against a baseline
//
// Absolute nanoseconds vary with the machine, so -check gates on the
// machine-neutral mutator inflation — loaded-over-idle mutator latency.
// Quotes never take the scheduling lock, so concurrent quote load may
// cost mutators CPU time but must never cost them the lock: inflation
// beyond the allowance means the isolation broke (a quote path acquired
// the mutator lock, or twins stopped being forked from snapshots).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"dynp/internal/benchgate"
	"dynp/internal/core"
	"dynp/internal/policy"
	"dynp/internal/rms"
	"dynp/internal/sim"
)

const (
	capacity = 64
	// quoters is the concurrent quote load applied while re-measuring the
	// mutator — matching the server's default quote-worker count.
	quoters = 4
	// inflationAllowance always passes: concurrent quotes sharing CPU with
	// a mutator legitimately cost it some latency, and small runners
	// oversubscribe. Beyond it the gate engages.
	inflationAllowance = 3.0
	// maxRegression is how far inflation may exceed its baseline once past
	// the allowance. Contention measurements are noisy, so the tolerance
	// is looser than the throughput benchmarks'.
	maxRegression = 0.5
)

type snapshot struct {
	GoMaxProcs      int   `json:"gomaxprocs"`
	Capacity        int   `json:"capacity"`
	LiveJobs        int   `json:"live_jobs"`
	QuoteNsPerOp    int64 `json:"quote_ns_per_op"`
	MutatorNsIdle   int64 `json:"mutator_ns_idle"`
	MutatorNsLoaded int64 `json:"mutator_ns_loaded"`
	// Inflation is loaded-over-idle mutator latency — the isolation gate.
	Inflation float64 `json:"inflation"`
	// QuoteOverMutator is quote cost relative to a mutator round trip on
	// the same machine (informational; a twin run is a full forward
	// simulation and is expected to dwarf one lock round trip).
	QuoteOverMutator float64 `json:"quote_over_mutator"`
}

func main() {
	out := flag.String("out", "BENCH_quote.json", "output file ('-' for stdout)")
	check := flag.String("check", "", "baseline BENCH_quote.json to compare a fresh run against (no output written)")
	flag.Parse()

	if *check != "" {
		raw, err := os.ReadFile(*check)
		fail(err)
		var base snapshot
		fail(json.Unmarshal(raw, &base))
		fail(benchgate.PinProcs("benchquote", base.GoMaxProcs))
		os.Exit(compare(base, measure()))
	}

	snap := measure()
	enc, err := json.MarshalIndent(snap, "", "  ")
	fail(err)
	enc = append(enc, '\n')
	if *out == "-" {
		_, err = os.Stdout.Write(enc)
	} else {
		err = os.WriteFile(*out, enc, 0o644)
	}
	fail(err)
}

// loadedScheduler builds the quote-enabled measurement fixture: a
// deterministic mid-drain state with the machine busy and a queue deep
// enough that every quote simulates real future scheduling.
func loadedScheduler() (*rms.Scheduler, int) {
	factory := func() sim.Driver { return sim.NewDynP(core.Preferred{Policy: policy.SJF}) }
	s, err := rms.New(capacity, factory(), 0)
	fail(err)
	fail(s.EnableQuotes(factory))

	rng := uint64(0xC0FFEE)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	now := int64(0)
	for i := 0; i < 40; i++ {
		subs := make([]rms.Submission, 1+next(3))
		for k := range subs {
			subs[k] = rms.Submission{Width: 1 + next(16), Estimate: int64(60 + next(600))}
		}
		now += int64(5 + next(40))
		if _, err := s.Deliver(now, nil, subs); err != nil {
			fail(err)
		}
	}
	st := s.Status()
	return s, len(st.Running) + len(st.Waiting)
}

func measure() snapshot {
	s, live := loadedScheduler()

	quoteRes := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := s.Quote(4, 300, 1); err != nil {
				fail(err)
			}
		}
	})

	// The mutator unit is a submit/retract round trip: two journal-free
	// lock acquisitions plus a replan, leaving the fixture's live set
	// unchanged for the next iteration. The job is cancelled if it
	// queued, completed if free processors let it start immediately.
	mutate := func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			info, err := s.Submit(1, 100)
			if err != nil {
				fail(err)
			}
			if info.State == rms.StateWaiting {
				err = s.Cancel(info.ID)
			} else {
				_, err = s.Complete(info.ID)
			}
			if err != nil {
				fail(err)
			}
		}
	}
	idleRes := testing.Benchmark(mutate)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < quoters; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if _, err := s.Quote(4, 300, 1); err != nil {
					fail(err)
				}
			}
		}()
	}
	loadedRes := testing.Benchmark(mutate)
	stop.Store(true)
	wg.Wait()

	snap := snapshot{
		GoMaxProcs:      runtime.GOMAXPROCS(0),
		Capacity:        capacity,
		LiveJobs:        live,
		QuoteNsPerOp:    quoteRes.NsPerOp(),
		MutatorNsIdle:   idleRes.NsPerOp(),
		MutatorNsLoaded: loadedRes.NsPerOp(),
	}
	if snap.MutatorNsIdle > 0 {
		snap.Inflation = float64(snap.MutatorNsLoaded) / float64(snap.MutatorNsIdle)
		snap.QuoteOverMutator = float64(snap.QuoteNsPerOp) / float64(snap.MutatorNsIdle)
	}
	fmt.Fprintf(os.Stderr, "benchquote: %d live jobs on %d processors, %d quote goroutines\n",
		snap.LiveJobs, snap.Capacity, quoters)
	fmt.Fprintf(os.Stderr, "benchquote: quote           %12d ns/op\n", snap.QuoteNsPerOp)
	fmt.Fprintf(os.Stderr, "benchquote: mutator idle    %12d ns/op\n", snap.MutatorNsIdle)
	fmt.Fprintf(os.Stderr, "benchquote: mutator loaded  %12d ns/op\n", snap.MutatorNsLoaded)
	fmt.Fprintf(os.Stderr, "benchquote: inflation %.2fx, quote/mutator %.1fx\n",
		snap.Inflation, snap.QuoteOverMutator)
	return snap
}

func compare(base, fresh snapshot) int {
	// Inflation under the allowance always passes; beyond it, it may not
	// exceed the baseline by more than the regression tolerance. Lower is
	// better here, so the limit is the LOOSER of the two — the allowance
	// exists precisely because CPU-sharing noise is legitimate.
	limit := inflationAllowance
	if b := base.Inflation * (1 + maxRegression); b > limit {
		limit = b
	}
	status := "ok"
	exit := 0
	if fresh.Inflation > limit {
		status = "REGRESSION (quotes are costing mutators more than CPU)"
		exit = 1
	}
	fmt.Fprintf(os.Stderr, "benchquote: mutator inflation under quote load %.2fx (limit %.2fx): %s\n",
		fresh.Inflation, limit, status)
	return exit
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchquote:", err)
		os.Exit(1)
	}
}
