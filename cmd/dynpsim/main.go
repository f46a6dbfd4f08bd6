// Command dynpsim runs a single simulation: one workload (a trace model or
// an SWF file), one scheduler, one shrinking factor — and reports the
// paper's metrics, the policy usage and, optionally, the decision trace of
// the self-tuning dynP scheduler.
//
// Examples:
//
//	dynpsim -trace KTH -jobs 5000 -shrink 0.8 -scheduler dynP/SJF-preferred
//	dynpsim -swf trace.swf -scheduler SJF
//	dynpsim -trace CTC -scheduler dynP/advanced -decisions 10
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"dynp"
	"dynp/internal/core"
	"dynp/internal/metrics"
	"dynp/internal/sim"
	"dynp/internal/timeline"
	"dynp/internal/workload"
)

func main() {
	var (
		trace     = flag.String("trace", "KTH", "trace model: CTC, KTH, LANL or SDSC")
		swfPath   = flag.String("swf", "", "SWF trace file (overrides -trace)")
		jobs      = flag.Int("jobs", 5000, "jobs to generate (trace models) or keep (SWF)")
		shrink    = flag.Float64("shrink", 1.0, "shrinking factor for submission times")
		scheduler = flag.String("scheduler", "dynP/SJF-preferred",
			"scheduler: FCFS, SJF, LJF, dynP/simple, dynP/advanced, dynP/<POLICY>-preferred")
		seed      = flag.Uint64("seed", 1, "random seed for workload generation")
		decisions = flag.Int("decisions", 0, "print the first N self-tuning decisions")
		cases     = flag.Bool("cases", false, "print the Table 1 case histogram of all decisions")
		timelines = flag.Bool("timeline", false, "print queue-length and active-policy strips")
		verify    = flag.Bool("verify", false, "re-verify every schedule (slow)")
		list      = flag.Bool("list", false, "list the registered policies and deciders, then exit")
	)
	flag.Parse()

	if *list {
		fmt.Println("policies:")
		for _, name := range dynp.PolicyNames() {
			fmt.Printf("  %s\n", name)
		}
		fmt.Println("deciders:")
		for _, name := range dynp.DeciderNames() {
			fmt.Printf("  %s\n", name)
		}
		return
	}

	set, err := workload.Load(*swfPath, *trace, *jobs, *seed)
	fail(err)
	if *shrink != 1.0 {
		set = set.Shrink(*shrink)
	}

	spec, err := dynp.ParseSchedulerSpec(*scheduler)
	fail(err)
	driver := spec.New()
	if d, ok := driver.(*sim.DynP); ok {
		if *decisions > 0 || *cases || *timelines {
			d.Tuner.EnableTrace()
		}
	}

	var opts []sim.Option
	if *verify {
		opts = append(opts, sim.WithVerify())
	}
	var queue timeline.QueueSeries
	if *timelines {
		opts = append(opts, sim.WithQueueProbe(queue.Probe()))
	}
	res, err := sim.Run(set, driver, opts...)
	fail(err)

	fmt.Printf("workload : %s (%d jobs, %d processors)\n", set.Name, len(set.Jobs), set.Machine)
	fmt.Printf("scheduler: %s\n", res.Scheduler)
	fmt.Printf("events   : %d scheduling events, makespan %d s\n", res.Events, res.Makespan-res.First)
	fmt.Printf("SLDwA    : %.3f\n", dynp.SLDwA(res))
	fmt.Printf("SLDwA60  : %.3f (bounded, tau=60s)\n", dynp.BoundedSLDwA(res, metrics.DefaultTau))
	fmt.Printf("util     : %.2f%%\n", 100*dynp.Utilization(res))
	fmt.Printf("ART      : %.0f s   AWT: %.0f s   ARTwW: %.0f s\n",
		dynp.ART(res), dynp.AWT(res), dynp.ARTwW(res))

	if len(res.PolicyTime) > 1 {
		fmt.Println("policy usage (share of simulated time):")
		var total int64
		for _, d := range res.PolicyTime {
			total += d
		}
		type share struct {
			name string
			frac float64
		}
		var shares []share
		for p, d := range res.PolicyTime {
			shares = append(shares, share{p.Name(), float64(d) / float64(total)})
		}
		sort.Slice(shares, func(i, j int) bool { return shares[i].frac > shares[j].frac })
		for _, s := range shares {
			fmt.Printf("  %-5s %6.2f%%\n", s.name, 100*s.frac)
		}
	}

	if d, ok := driver.(*sim.DynP); ok {
		st := d.Stats()
		fmt.Printf("self-tuning: %d steps, %d policy switches\n", st.Steps, st.Switches)
		if *decisions > 0 {
			tr := d.Tuner.Trace()
			if len(tr) > *decisions {
				tr = tr[:*decisions]
			}
			fmt.Printf("first %d decisions (FCFS/SJF/LJF planned SLDwA):\n", len(tr))
			for _, dec := range tr {
				marker := " "
				if dec.Chosen != dec.Old {
					marker = "*"
				}
				fmt.Printf("  t=%-9d %s -> %-4s %s  [%.3f %.3f %.3f]  case %s\n",
					dec.Time, dec.Old, dec.Chosen, marker,
					dec.Values[0], dec.Values[1], dec.Values[2],
					dynp.DecisionCase(dec.Old, dec.Values[0], dec.Values[1], dec.Values[2]))
			}
		}
		if *cases {
			tr := d.Tuner.Trace()
			fmt.Printf("Table 1 case histogram over %d decisions:\n", len(tr))
			hist := dynp.ClassifyDecisions(tr)
			var wrongShare float64
			for _, c := range hist {
				if c.SimpleWrong {
					wrongShare += float64(c.Count)
				}
			}
			for _, line := range core.FormatCases(hist, len(tr)) {
				fmt.Println("  " + line)
			}
			fmt.Printf("  decisions in simple-decider-wrong cases: %.1f%%\n",
				100*wrongShare/float64(len(tr)))
		}
		if *timelines {
			fmt.Println()
			fail(timeline.PolicyStrip(os.Stdout, d.Tuner.Trace(), res.Makespan, 100))
		}
	}
	if *timelines {
		fmt.Println()
		fail(queue.Sparkline(os.Stdout, 100))
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dynpsim:", err)
		os.Exit(1)
	}
}
