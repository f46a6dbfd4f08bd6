package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
)

// agreement runs every chosen workload twice, back to back, untraced,
// each run in a process of its own like the gate's — a second run in
// the same process would find the generator cache warm and report a
// shorter set-up. Per end-to-end metric it prints both values, their
// relative difference and the metric's bound, and it reports whether
// every result was correct and every difference within its bound: the
// evidence that the bounds in BENCHMARK.json are wider than the
// benchmark's own noise.
func agreement(chosen []spec, o options) bool {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	ok := true
	for _, s := range chosen {
		var runs [2]outcome
		for i := range runs {
			args := []string{"-workload", s.name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-passes", fmt.Sprint(o.passes), fmt.Sprintf("-smoke=%v", o.smoke)}
			cmd := exec.Command(self, args...)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			os.Stdout.Write(out)
			if _, wrong := err.(*exec.ExitError); err != nil && !(wrong && cmd.ProcessState.ExitCode() == 1) {
				fatal(fmt.Errorf("%s: %w", s.name, err)) // exit 1 is a wrong result, reported below
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			if err := json.Unmarshal(lines[len(lines)-1], &runs[i]); err != nil {
				fatal(fmt.Errorf("%s: result line: %w", s.name, err))
			}
			ok = ok && runs[i].Correct
		}
		for _, d := range endToEnd {
			a, b := runs[0].Metrics[d.Name].Value, runs[1].Metrics[d.Name].Value
			diff := math.Abs(b-a) / a
			within := diff <= d.Bound
			ok = ok && within
			line, err := json.Marshal(map[string]any{"agree": map[string]any{
				"workload": s.name, "metric": d.Name, "unit": d.Unit,
				"first": a, "second": b, "rel_diff": diff, "bound": d.Bound, "within": within,
			}})
			if err != nil {
				fatal(err)
			}
			fmt.Println(string(line))
			if !within {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %s differs by %.1f%% between two runs of the same code (bound %.0f%%)\n",
					s.name, d.Name, 100*diff, 100*d.Bound)
			}
		}
	}
	return ok
}
