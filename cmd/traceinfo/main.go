// Command traceinfo prints the paper's Table 2 statistics for a workload:
// either a generated job set from one of the calibrated trace models, or
// an SWF file from the Parallel Workloads Archive.
//
// Examples:
//
//	traceinfo -trace LANL -jobs 10000
//	traceinfo -swf CTC-SP2-1996-3.1-cln.swf
package main

import (
	"flag"
	"fmt"
	"os"

	"dynp"
	"dynp/internal/workload"
)

func main() {
	var (
		trace   = flag.String("trace", "", "trace model: CTC, KTH, LANL or SDSC")
		swfPath = flag.String("swf", "", "SWF trace file")
		jobs    = flag.Int("jobs", 10000, "jobs to generate (trace models) or keep (SWF; 0 = all)")
		seed    = flag.Uint64("seed", 1, "random seed for generation")
	)
	flag.Parse()

	if *swfPath == "" && *trace == "" {
		fail(fmt.Errorf("need -trace or -swf"))
	}
	set, err := workload.Load(*swfPath, *trace, *jobs, *seed)
	fail(err)

	c := dynp.Characterize(set)
	fmt.Printf("workload: %s\n", c.Name)
	fmt.Printf("jobs    : %d on %d processors\n", c.Jobs, c.Machine)
	row := func(name string, min, mean, max float64) {
		fmt.Printf("%-22s min %10.0f   avg %12.2f   max %12.0f\n", name, min, mean, max)
	}
	row("width [procs]", c.Width.Min, c.Width.Mean, c.Width.Max)
	row("estimated run time [s]", c.Est.Min, c.Est.Mean, c.Est.Max)
	row("actual run time [s]", c.Act.Min, c.Act.Mean, c.Act.Max)
	row("interarrival time [s]", c.IAT.Min, c.IAT.Mean, c.IAT.Max)
	row("area [proc-s]", c.Area.Min, c.Area.Mean, c.Area.Max)
	fmt.Printf("%-22s %0.3f\n", "overestimation factor", c.Overest)
	fmt.Printf("%-22s %0.3f (mean area / (machine x mean IAT))\n", "offered load", c.OfferedLoad())
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "traceinfo:", err)
		os.Exit(1)
	}
}
