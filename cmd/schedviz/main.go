// Command schedviz visualises a schedule: it runs one workload under one
// scheduler and renders the machine occupancy as an ASCII strip or an SVG
// file, plus the queue-length sparkline and — for the dynP schedulers —
// the active-policy strip over time.
//
// Examples:
//
//	schedviz -trace KTH -jobs 200 -shrink 0.8
//	schedviz -trace SDSC -scheduler dynP/advanced -svg out.svg
//	schedviz -swf trace.swf -scheduler EASY -width 100
package main

import (
	"flag"
	"fmt"
	"os"

	"dynp"
	"dynp/internal/gantt"
	"dynp/internal/sim"
	"dynp/internal/timeline"
	"dynp/internal/workload"
)

func main() {
	var (
		trace     = flag.String("trace", "KTH", "trace model: CTC, KTH, LANL or SDSC")
		swfPath   = flag.String("swf", "", "SWF trace file (overrides -trace)")
		jobs      = flag.Int("jobs", 150, "jobs to simulate")
		shrink    = flag.Float64("shrink", 0.8, "shrinking factor")
		scheduler = flag.String("scheduler", "dynP/SJF-preferred", "scheduler name")
		seed      = flag.Uint64("seed", 1, "workload seed")
		width     = flag.Int("width", 100, "terminal strip width")
		svgPath   = flag.String("svg", "", "write an SVG occupancy chart to this file")
	)
	flag.Parse()

	set, err := workload.Load(*swfPath, *trace, *jobs, *seed)
	fail(err)
	if *shrink != 1.0 {
		set = set.Shrink(*shrink)
	}

	spec, err := dynp.ParseSchedulerSpec(*scheduler)
	fail(err)
	driver := spec.New()
	if d, ok := driver.(*sim.DynP); ok {
		d.Tuner.EnableTrace()
	}

	var q timeline.QueueSeries
	res, err := sim.Run(set, driver, sim.WithQueueProbe(q.Probe()))
	fail(err)

	fmt.Printf("%s under %s: SLDwA %.2f, utilization %.1f%%\n\n",
		set.Name, res.Scheduler, dynp.SLDwA(res), 100*dynp.Utilization(res))

	chart, err := gantt.FromResult(res)
	fail(err)
	if set.Machine <= 64 {
		fail(chart.ASCII(os.Stdout, *width))
	} else {
		fmt.Printf("(machine too tall for ASCII: %d processors; use -svg)\n", set.Machine)
	}
	fmt.Println()
	fail(q.Sparkline(os.Stdout, *width))

	if d, ok := driver.(*sim.DynP); ok {
		fmt.Println()
		fail(timeline.PolicyStrip(os.Stdout, d.Tuner.Trace(), res.Makespan, *width))
	}

	if *svgPath != "" {
		f, err := os.Create(*svgPath)
		fail(err)
		err = chart.SVG(f, 1200, 600)
		cerr := f.Close()
		fail(err)
		fail(cerr)
		fmt.Fprintf(os.Stderr, "schedviz: wrote %s\n", *svgPath)
	}
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "schedviz:", err)
		os.Exit(1)
	}
}
