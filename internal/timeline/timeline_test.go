package timeline

import (
	"strings"
	"testing"

	"dynp/internal/core"
	"dynp/internal/policy"
	"dynp/internal/rng"
	"dynp/internal/sim"
	"dynp/internal/workload"
)

func TestQueueSeriesProbe(t *testing.T) {
	set, err := workload.KTH.Generate(300, rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	var q QueueSeries
	_, err = sim.Run(set.Shrink(0.7), &sim.Static{Policy: policy.FCFS},
		sim.WithQueueProbe(q.Probe()))
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Times) == 0 || len(q.Times) != len(q.Queue) {
		t.Fatalf("samples: %d/%d", len(q.Times), len(q.Queue))
	}
	if q.Max() == 0 {
		t.Fatal("no queueing observed on a loaded machine")
	}
	if q.Mean() <= 0 || q.Mean() > float64(q.Max()) {
		t.Fatalf("mean %v outside (0, max]", q.Mean())
	}
}

func TestSparkline(t *testing.T) {
	q := QueueSeries{
		Times: []int64{0, 100, 200, 300},
		Queue: []int{0, 7, 3, 0},
	}
	var b strings.Builder
	if err := q.Sparkline(&b, 40); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "max 7") {
		t.Fatalf("missing max in header:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Fatalf("peak glyph missing:\n%s", out)
	}
}

func TestSparklineErrors(t *testing.T) {
	var empty QueueSeries
	var b strings.Builder
	if err := empty.Sparkline(&b, 40); err == nil {
		t.Error("empty series accepted")
	}
	q := QueueSeries{Times: []int64{0}, Queue: []int{1}}
	if err := q.Sparkline(&b, 2); err == nil {
		t.Error("tiny width accepted")
	}
	// A single sample must not divide by zero.
	if err := q.Sparkline(&b, 20); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyStrip(t *testing.T) {
	trace := []core.Decision{
		{Time: 0, Old: policy.FCFS, Chosen: policy.SJF},
		{Time: 500, Old: policy.SJF, Chosen: policy.LJF},
		{Time: 900, Old: policy.LJF, Chosen: policy.SJF},
	}
	var b strings.Builder
	if err := PolicyStrip(&b, trace, 1000, 20); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "S") || !strings.Contains(out, "L") {
		t.Fatalf("strip missing policies:\n%s", out)
	}
	// SJF dominates [0,500) and [900,1000): the first half of the strip
	// must be S.
	strip := out[strings.Index(out, "|")+1:]
	if strip[0] != 'S' {
		t.Fatalf("strip starts with %q:\n%s", strip[0], out)
	}
}

func TestPolicyStripErrors(t *testing.T) {
	var b strings.Builder
	if err := PolicyStrip(&b, nil, 10, 20); err == nil {
		t.Error("empty trace accepted")
	}
	trace := []core.Decision{{Time: 100, Chosen: policy.SJF}}
	if err := PolicyStrip(&b, trace, 100, 20); err == nil {
		t.Error("end == first decision accepted")
	}
	if err := PolicyStrip(&b, trace, 200, 5); err == nil {
		t.Error("tiny width accepted")
	}
}

func TestEndToEndWithDynP(t *testing.T) {
	set, err := workload.SDSC.Generate(400, rng.New(42))
	if err != nil {
		t.Fatal(err)
	}
	d := sim.NewDynP(core.Advanced{})
	d.Tuner.EnableTrace()
	var q QueueSeries
	res, err := sim.Run(set.Shrink(0.8), d, sim.WithQueueProbe(q.Probe()))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := q.Sparkline(&b, 60); err != nil {
		t.Fatal(err)
	}
	if err := PolicyStrip(&b, d.Tuner.Trace(), res.Makespan, 60); err != nil {
		t.Fatal(err)
	}
	switches := 0
	for _, dec := range d.Tuner.Trace() {
		if dec.Chosen != dec.Old {
			switches++
		}
	}
	if switches != d.Stats().Switches {
		t.Fatal("switch counts disagree between the decision trace and tuner stats")
	}
}
