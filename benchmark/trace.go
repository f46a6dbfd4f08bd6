package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"

	"dynp/internal/core"
	"dynp/internal/engine"
	"dynp/internal/eventq"
	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
	"dynp/internal/profile"
	"dynp/internal/sim"
)

// span is one timed interval at a layer boundary. Parent is the index
// of the span that caused it (-1 for a root) and Run identifies the
// sim.Run, sweep or ladder rung it belongs to. N and M carry the work
// size the layer saw (waiting and running jobs for core.plan, jobs
// placed for the placement layers), so ratios are measured where the
// work happens.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Run    int32  `json:"run_id"`
	N      int32  `json:"n,omitempty"`
	M      int32  `json:"m,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory; nothing is written until the run ends.
// All spans are recorded by benchmark code around calls into the layers.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent, run int) int {
	t.spans = append(t.spans, span{Name: name, Parent: int32(parent), Run: int32(run)})
	i := len(t.spans) - 1
	t.spans[i].Start = int64(time.Since(t.epoch))
	return i
}

func (t *tracer) end(i int) { t.spans[i].End = int64(time.Since(t.epoch)) }

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part its direct children cover. The benchmark's
// spans come from one goroutine, so siblings never overlap and the
// covered part is the children's summed duration.
func selfTimes(spans []span) map[string]int64 {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.dur()
		}
	}
	self := make(map[string]int64)
	for i, s := range spans {
		self[s.Name] += s.dur() - covered[i]
	}
	return self
}

// The sampling strides of the traced driver. Replaying the lower layers
// costs about 1.7 full rebuilds, so every 16th call keeps the whole
// traced run within the 25% overhead budget; runtime.ReadMemStats stops
// the world, so allocation deltas are taken far more rarely.
const (
	replayEvery = 16
	allocEvery  = 256
)

// tracedDriver wraps the dynP driver and times every Plan call as a
// core.plan span under the current sim.run span. It forwards the
// optional driver interfaces the engine probes for, so the tuner's
// incremental order views and memoization stay engaged exactly as in
// an untraced run. On every replayEvery-th call the same inputs are
// replayed through the lower layers' public functions, each in its own
// span under a "replay" span — tracing work gets spans of its own so it
// never counts as the simulator's self time.
type tracedDriver struct {
	inner *sim.DynP
	tr    *tracer
	run   int // the enclosing sim.run span
	calls int

	allocSamples, allocs, bytes uint64
	steps                       []int // profile steps after placing a whole queue
	scratch                     profile.Profile
}

var (
	_ engine.Driver        = (*tracedDriver)(nil)
	_ engine.QueueTracker  = (*tracedDriver)(nil)
	_ engine.DecisionCaser = (*tracedDriver)(nil)
)

func (d *tracedDriver) Name() string                { return d.inner.Name() }
func (d *tracedDriver) ActivePolicy() policy.Policy { return d.inner.ActivePolicy() }
func (d *tracedDriver) NoteSubmit(j *job.Job)       { d.inner.NoteSubmit(j) }
func (d *tracedDriver) NoteRemove(j *job.Job)       { d.inner.NoteRemove(j) }
func (d *tracedDriver) LastDecisionCase() string    { return d.inner.LastDecisionCase() }

func (d *tracedDriver) Plan(now int64, capacity int, running []plan.Running, waiting []*job.Job) *plan.Schedule {
	d.calls++
	sampleAllocs := d.calls%allocEvery == 0
	var before runtime.MemStats
	if sampleAllocs {
		m := d.tr.begin("trace.memstats", d.run, d.run)
		runtime.ReadMemStats(&before)
		d.tr.end(m)
	}

	p := d.tr.begin("core.plan", d.run, d.run)
	s := d.inner.Plan(now, capacity, running, waiting)
	d.tr.end(p)
	d.tr.spans[p].N, d.tr.spans[p].M = int32(len(waiting)), int32(len(running))

	if sampleAllocs {
		m := d.tr.begin("trace.memstats", d.run, d.run)
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		d.tr.end(m)
		d.allocSamples++
		d.allocs += after.Mallocs - before.Mallocs
		d.bytes += after.TotalAlloc - before.TotalAlloc
	}
	if d.calls%replayEvery == 0 {
		d.replay(now, capacity, running, waiting)
	}
	return s
}

// replay drives one scheduling event's inputs through each layer under
// core.plan: base profile, policy orders, candidate placement, scoring,
// the decider, and the profile operations placement is made of. What it
// builds is pooled storage, released before it returns.
func (d *tracedDriver) replay(now int64, capacity int, running []plan.Running, waiting []*job.Job) {
	tr, run := d.tr, d.run
	cands := d.inner.Tuner.Candidates()
	n := int32(len(waiting))
	r := tr.begin("replay", run, run)

	i := tr.begin("plan.base", r, run)
	base := plan.BuildBasePooled(now, capacity, running)
	tr.end(i)
	tr.spans[i].N = int32(len(running))

	ordered := make([][]*job.Job, len(cands))
	i = tr.begin("policy.order", r, run)
	for c, p := range cands {
		ordered[c] = policy.Order(p, waiting)
	}
	tr.end(i)
	tr.spans[i].N = n * int32(len(cands))

	scheds := make([]*plan.Schedule, len(cands))
	i = tr.begin("plan.place", r, run)
	for c, p := range cands {
		scheds[c] = plan.BuildFromOrdered(base, ordered[c], p)
	}
	tr.end(i)
	tr.spans[i].N = n * int32(len(cands))

	values := make([]float64, len(cands))
	i = tr.begin("core.score", r, run)
	for c := range cands {
		values[c] = core.MetricSLDwA.Score(scheds[c])
	}
	tr.end(i)

	i = tr.begin("core.decide", r, run)
	chosen := d.inner.Tuner.Decider().Decide(d.inner.ActivePolicy(), cands, values)
	tr.end(i)
	plan.ReleaseSchedules(scheds)

	order := ordered[0]
	for c, p := range cands {
		if p == chosen {
			order = ordered[c]
		}
	}
	src := base.Profile()
	i = tr.begin("profile.clone", r, run)
	src.CloneInto(&d.scratch)
	tr.end(i)
	i = tr.begin("profile.place", r, run)
	for _, j := range order {
		d.scratch.Place(now, j.Width, j.Estimate)
	}
	tr.end(i)
	tr.spans[i].N = n
	times, _ := d.scratch.Steps()
	d.steps = append(d.steps, len(times))

	base.Release()
	tr.end(r)
}

// eventqOp is one call the simulator made on its event queue.
type eventqOp struct {
	time int64
	kind int8 // 0..1: Push with that class; 2: Peek; 3: PopIf(time)
}

// eventqOps reconstructs the exact push/peek/pop sequence sim.Run issued
// for this set from the set and its records: all submissions pushed up
// front, then per instant one Peek, a PopIf drain, and one completion
// pushed per job the instant started.
func eventqOps(set *job.Set, res *sim.Result) []eventqOp {
	startsAt := make(map[int64][]int64, len(res.Records))
	for _, r := range res.Records {
		startsAt[r.Start] = append(startsAt[r.Start], r.Finish)
	}
	ops := make([]eventqOp, 0, 6*len(set.Jobs))
	var q eventq.Queue[struct{}]
	for _, j := range set.Jobs {
		ops = append(ops, eventqOp{j.Submit, 1})
		q.Push(j.Submit, 1, struct{}{})
	}
	for q.Len() > 0 {
		head, _ := q.Peek()
		ops = append(ops, eventqOp{head.Time, 2})
		for {
			ops = append(ops, eventqOp{head.Time, 3})
			if _, ok := q.PopIf(head.Time); !ok {
				break
			}
		}
		for _, finish := range startsAt[head.Time] {
			ops = append(ops, eventqOp{finish, 0})
			q.Push(finish, 0, struct{}{})
		}
	}
	return ops
}

// replayEventq times the reconstructed sequence against a fresh queue
// with the simulator's payload size, as an eventq.replay span.
func replayEventq(tr *tracer, run int, set *job.Set, ops []eventqOp) {
	type payload struct {
		kind int
		job  *job.Job
	}
	var q eventq.Queue[payload]
	i := tr.begin("eventq.replay", -1, run)
	q.Reserve(2 * len(set.Jobs))
	for _, op := range ops {
		switch op.kind {
		case 2:
			q.Peek()
		case 3:
			q.PopIf(op.time)
		default:
			q.Push(op.time, int(op.kind), payload{})
		}
	}
	tr.end(i)
	tr.spans[i].N = int32(len(ops))
}
