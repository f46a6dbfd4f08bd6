package main

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"dynp/internal/job"
	"dynp/internal/rms"
	"dynp/internal/sim"
	"dynp/internal/stats"
)

// tracedPasses is the length of the traced phase: the per-layer numbers
// are ratios and means over tens of thousands of spans, so two passes
// suffice and keep a traced run inside the contract's run-time cap.
const tracedPasses = 2

// restartCycles is how often the ladder's daemon is killed and restarted.
const restartCycles = 10

// trace runs one workload with tracing on and reports every per-layer
// metric: the simulator layers over the workload's job sets, the sweep
// layers over its models, and the online ladder over its first stream.
// No end-to-end metric comes from here.
func (s spec) trace(o options, out string) (*measurement, error) {
	m := newMeasurement()
	offset, sets, orc, err := s.setup(o, &m.tally)
	if err != nil {
		return nil, err
	}
	tr := newTracer()

	traceSim(tr, strided(sets, s.traceSets), offset, orc, m)

	sweepSets, sweepJobs := s.probeSets, s.probeJobs
	if s.kind == kindSweep {
		sweepSets, sweepJobs = s.sets, s.jobs
	}
	for name, v := range s.traceSweep(tr, sweepSets, sweepJobs, &m.tally) {
		m.set(name, v, 1)
	}

	head := &job.Set{Name: sets[0].Name, Machine: sets[0].Machine, Jobs: sets[0].Jobs[:min(s.ladderJobs, len(sets[0].Jobs))]}
	if err := traceLadder(tr, head, o, m); err != nil {
		return nil, err
	}

	m.notes["spans"] = len(tr.spans)
	if out != "" {
		if err := tr.write(out); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// strided picks n sets spread evenly over the list, so a sweep's trace
// covers every model and shrink instead of the first model's sets.
func strided(sets []*job.Set, n int) []*job.Set {
	if n >= len(sets) {
		return sets
	}
	out := make([]*job.Set, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, sets[i*len(sets)/n])
	}
	return out
}

// traceSim measures the simulator layers. One warm-up pass and one timed
// untraced pass give the baseline the tracing overhead is judged
// against; then every sim.Run of the traced passes is a sim.run span
// whose children are the wrapped driver's core.plan and replay spans.
// Afterwards each set's event-queue traffic is replayed on its own.
func traceSim(tr *tracer, sets []*job.Set, offset int64, orc *oracle, m *measurement) {
	simPass(sets, offset, orc, new(tally))
	untraced, _ := simPass(sets, offset, orc, &m.tally)

	td := &tracedDriver{tr: tr}
	var traced float64
	events := 0
	results := make([]*sim.Result, len(sets))
	for pass := 0; pass < tracedPasses; pass++ {
		for k, set := range sets {
			run := tr.begin("sim.run", -1, 0)
			tr.spans[run].Run = int32(run)
			td.inner, td.run = newDriver(), run
			res, err := sim.Run(set, td)
			tr.end(run)
			traced += float64(tr.spans[run].dur()) / 1e9
			if err == nil {
				events += res.Events
				results[k] = res
				err = orc.check(set.Name, fingerprint(res, td.inner.Stats(), offset))
			}
			m.op(err)
		}
	}
	for k, set := range sets {
		if results[k] != nil {
			replayEventq(tr, 0, set, eventqOps(set, results[k]))
		}
	}
	if events == 0 {
		return
	}
	simLayerMetrics(tr.spans, td, events, m)
	m.set("trace.overhead_share", 1-untraced*tracedPasses/traced, tracedPasses)
}

// simLayerMetrics folds the spans of the traced passes into the
// per-layer metrics of the simulator stack.
func simLayerMetrics(spans []span, td *tracedDriver, events int, m *measurement) {
	self := selfTimes(spans)
	var planNs, queueLen, running, sampledPlan, eventqNs float64
	var planUs []float64
	var queues []int
	queueMax := 0
	// Per sampled event: the Plan call's own duration and whether it was
	// cheap enough to have skipped the rebuild.
	type layer struct{ ns, n, calls float64 }
	layers := map[string]*layer{}
	for _, name := range []string{"plan.base", "policy.order", "plan.place", "core.score", "core.decide", "profile.clone", "profile.place"} {
		layers[name] = &layer{}
	}
	rebuildNs := map[string]float64{} // layer time over sampled events that did rebuild
	var lastPlan span
	fast, nonEmpty, rebuilt := 0, 0, false
	for _, sp := range spans {
		switch sp.Name {
		case "core.plan":
			lastPlan = sp
			planNs += float64(sp.dur())
			planUs = append(planUs, float64(sp.dur())/1e3)
			queues = append(queues, int(sp.N))
			queueLen += float64(sp.N)
			running += float64(sp.M)
			queueMax = max(queueMax, int(sp.N))
		case "replay":
			sampledPlan += float64(lastPlan.dur())
		case "eventq.replay":
			eventqNs += float64(sp.dur())
		case "plan.base":
			// A memo or speculation hit still builds the base profile but
			// nothing else, so a Plan call no dearer than base+10% is
			// taken to be one. Empty queues have nothing to skip.
			rebuilt = true
			if lastPlan.N > 0 {
				nonEmpty++
				if float64(lastPlan.dur()) <= 1.1*float64(sp.dur()) {
					fast++
					rebuilt = false
				}
			}
		}
		if l, ok := layers[sp.Name]; ok {
			l.ns += float64(sp.dur())
			l.n += float64(sp.N)
			l.calls++
			if rebuilt || sp.Name == "plan.base" {
				rebuildNs[sp.Name] += float64(sp.dur())
			}
		}
	}
	calls := float64(len(planUs))
	wall := float64(self["sim.run"]) + planNs // what an untraced run spends
	planShare := planNs / wall

	m.set("sim.self_share", float64(self["sim.run"])/wall, events)
	m.set("sim.self_us_per_event", float64(self["sim.run"])/1e3/float64(events), events)
	m.set("eventq.us_per_event", eventqNs/1e3/float64(events)*tracedPasses, events/tracedPasses)
	m.set("core.plan_share", planShare, len(planUs))
	sorted := sortedCopy(planUs)
	m.set("core.plan_p50_us", percentile(sorted, 0.5), len(sorted))
	m.set("core.plan_p99_us", percentile(sorted, tailPercentile(len(sorted))), len(sorted))
	m.set("core.plan_calls", calls/tracedPasses, tracedPasses)
	for q, v := range byQuartile(queues, planUs) {
		m.set(fmt.Sprintf("core.plan_us_by_queue.q%d", q+1), v, len(planUs)/4)
	}
	m.set("core.fastpath_share", float64(fast)/float64(max(nonEmpty, 1)), nonEmpty)
	m.set("core.allocs_per_plan", float64(td.allocs)/float64(max(td.allocSamples, 1)), int(td.allocSamples))
	m.set("core.bytes_per_plan", float64(td.bytes)/float64(max(td.allocSamples, 1)), int(td.allocSamples))

	// A layer's share of the wall: its time over the sampled events that
	// paid for it, relative to those events' Plan calls, scaled by
	// Plan's share. policy.order is what full sorts would cost — the
	// tuner's spliced views spare it, static drivers pay it.
	share := func(name string) float64 { return rebuildNs[name] / sampledPlan * planShare }
	us := func(name string) float64 { return layers[name].ns / 1e3 / layers[name].calls }
	perJob := func(name string) float64 { return layers[name].ns / max(layers[name].n, 1) }
	n := int(layers["plan.base"].calls)
	m.set("plan.base_us", us("plan.base"), n)
	m.set("plan.base_share", share("plan.base"), n)
	m.set("policy.order_us", us("policy.order"), n)
	m.set("policy.order_share", share("policy.order"), n)
	m.set("plan.place_us", us("plan.place"), n)
	m.set("plan.place_share", share("plan.place"), n)
	m.set("plan.place_ns_per_job", perJob("plan.place"), n)
	m.set("profile.place_ns_per_job", perJob("profile.place"), n)
	m.set("profile.clone_us", us("profile.clone"), n)
	steps, stepsMax := 0, 0
	for _, v := range td.steps {
		steps += v
		stepsMax = max(stepsMax, v)
	}
	m.set("profile.steps_mean", float64(steps)/float64(max(len(td.steps), 1)), len(td.steps))
	m.set("profile.steps_max", float64(stepsMax), len(td.steps))
	m.set("core.score_us", us("core.score"), n)
	m.set("core.decide_us", us("core.decide"), n)

	m.set("engine.queue_mean", queueLen/calls, len(planUs))
	m.set("engine.queue_max", float64(queueMax), len(planUs))
	m.set("engine.running_mean", running/calls, len(planUs))
	m.set("engine.events", float64(events)/tracedPasses, tracedPasses)
}

// traceLadder replays one event stream through every layer between the
// planner and the socket, each rung adding one layer to the one before:
//
//	a  rms.Scheduler.Deliver in-process, no journal
//	b  the same with a journal
//	c  rms.Server.Handle (a journal again, so c-b is the dispatcher)
//	d  Server.ServeConn over an in-memory pipe (JSON both ways)
//	e  TCP to a dynpd subprocess
//
// Adjacent differences of the mean deliver time are the layers' self
// times. Rung e's daemon is then killed and restarted restartCycles
// times on its journal. At smoke size rungs d and e coincide and
// nothing is restarted, because `go test` spawns no daemon.
func traceLadder(tr *tracer, set *job.Set, o options, m *measurement) error {
	d := newDriver()
	t0 := time.Now()
	ref, err := sim.Run(set, d)
	simWall := time.Since(t0).Seconds()
	if err != nil {
		return err
	}
	stream := buildStream(set, ref)
	if err := os.MkdirAll(o.workDir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.workDir, "ladder-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rungs := 0
	rung := func(name string, mut, read rmsConn, onStatus func(rms.Status)) *replayResult {
		i := tr.begin("ladder."+name, -1, rungs)
		rungs++
		r := replay(mut, read, set, stream, onStatus)
		tr.end(i)
		tr.spans[i].N = int32(len(r.deliverMs))
		r.checkFinished(read, set, ref)
		m.add(r)
		return r
	}
	// inProcess builds a scheduler like dynpd's, journaled or not.
	inProcess := func(journal string) (*rms.Scheduler, *rms.Server, func() error, error) {
		sched, trace, err := newScheduler(set.Machine)
		if err != nil {
			return nil, nil, nil, err
		}
		closeJournal := func() error { return nil }
		if journal != "" {
			j, err := rms.OpenJournal(filepath.Join(dir, journal))
			if err != nil {
				return nil, nil, nil, err
			}
			if err := sched.SetJournal(j); err != nil {
				j.Close()
				return nil, nil, nil, err
			}
			closeJournal = j.Close
		}
		return sched, newServer(sched, trace), closeJournal, nil
	}

	// a: the scheduler alone. Status sizes are sampled here, untimed.
	sched, _, _, err := inProcess("")
	if err != nil {
		return err
	}
	var statusBytes float64
	a := rung("sched", schedConn{sched}, schedConn{sched}, func(st rms.Status) {
		statusBytes += float64(jsonLen(st))
	})

	// b: plus the journal.
	sched, _, closeJournal, err := inProcess("b")
	if err != nil {
		return err
	}
	b := rung("journal", schedConn{sched}, schedConn{sched}, nil)
	if err := closeJournal(); err != nil {
		return err
	}

	// c: plus the protocol dispatcher.
	_, sv, closeJournal, err := inProcess("c")
	if err != nil {
		return err
	}
	c := rung("handle", handleConn{sv}, handleConn{sv}, nil)
	if err := closeJournal(); err != nil {
		return err
	}

	// d: plus JSON encoding and decoding on both sides.
	_, sv, closeJournal, err = inProcess("d")
	if err != nil {
		return err
	}
	mut, stopMut, err := pipeClient(sv)
	if err != nil {
		return err
	}
	read, stopRead, err := pipeClient(sv)
	if err != nil {
		stopMut()
		return err
	}
	dd := rung("pipe", mut, read, nil)
	for _, stop := range []func() error{stopRead, stopMut, closeJournal} {
		if err := stop(); err != nil {
			return err
		}
	}

	// e: plus the kernel's TCP stack and a process boundary.
	e, restartMs, journalBytes, segments, checkpointBytes := dd, []float64{0}, int64(0), 0, int64(0)
	daemonRSS, err := peakRSSMiB(os.Getpid())
	if err != nil {
		return err
	}
	if !o.smoke {
		w, err := startWire(set.Machine, o)
		if err != nil {
			return err
		}
		defer w.close()
		e = rung("tcp", w.mut, w.read, nil)
		if daemonRSS, err = peakRSSMiB(w.pid()); err != nil {
			return err
		}
		if restartMs, err = restartCyclesOn(w, &m.tally); err != nil {
			return err
		}
		if journalBytes, segments, checkpointBytes, err = journalStats(w.daemon.journal()); err != nil {
			return err
		}
	}

	us := func(r *replayResult) float64 { return stats.Mean(r.deliverMs) * 1e3 }
	delivers := len(a.deliverMs)
	m.set("rms.deliver_us", us(a), delivers)
	m.set("rms.online_overhead_ratio", a.wall/simWall, 1)
	m.set("rms.journal_us_per_event", us(b)-us(a), delivers)
	m.set("rms.server_us", us(c)-us(b), delivers)
	m.set("wire.codec_us", us(dd)-us(c), delivers)
	m.set("wire.tcp_us", us(e)-us(dd), delivers)
	m.set("rms.journal_bytes_per_event", float64(journalBytes)/float64(delivers), delivers)
	m.set("rms.journal_segments", float64(segments), 1)
	m.set("rms.checkpoint_bytes_last", float64(checkpointBytes), 1)
	m.set("rms.status_bytes_mean", statusBytes/float64(max(len(a.statusMs), 1)), len(a.statusMs))
	quoteUs := make([]float64, len(a.quoteMs))
	for i, v := range a.quoteMs {
		quoteUs[i] = v * 1e3
	}
	m.set("rms.quote_us", stats.Mean(quoteUs), len(quoteUs))
	for q, v := range byQuartile(a.quoteQueue, quoteUs) {
		m.set(fmt.Sprintf("rms.quote_us_by_queue.q%d", q+1), v, len(quoteUs)/4)
	}
	m.set("rms.restart_p50_ms", median(restartMs), len(restartMs))
	m.set("rms.daemon_rss_mb", daemonRSS, 1)

	m.set("wire.deliver_ops_per_s", float64(len(e.deliverMs))/e.wall, len(e.deliverMs))
	m.latencies("wire.deliver_p50_ms", "wire.deliver_p99_ms", e.deliverMs)
	m.latencies("wire.status_p50_ms", "wire.status_p99_ms", e.statusMs)
	m.latencies("wire.quote_p50_ms", "wire.quote_p99_ms", e.quoteMs)
	return nil
}

// restartCyclesOn kills the wire's daemon with SIGKILL and restarts it
// on its journal in fast replay mode, timing each restart from process
// start to a ready answer; the restored report must equal the one taken
// before the kill. The wire is left running the last restarted daemon.
func restartCyclesOn(w *wire, ops *tally) ([]float64, error) {
	var restartMs []float64
	for i := 0; i < restartCycles; i++ {
		before, err := w.read.Report()
		if err != nil {
			return nil, err
		}
		old := w.daemon
		old.kill()
		t0 := time.Now()
		d, err := startDaemon(old.bin, old.dir, old.procs)
		if err != nil {
			return nil, err
		}
		restartMs = append(restartMs, ms(time.Since(t0)))
		// Swap the daemon in where close() will find it, and redial.
		*old = *d
		for _, c := range []*rmsConn{&w.mut, &w.read} {
			(*c).(*rms.Client).Close()
			client, err := old.dial()
			if err != nil {
				return nil, err
			}
			*c = client
			w.closers = append(w.closers, client.Close)
		}
		after, err := w.read.Report()
		if err == nil && !reflect.DeepEqual(before, after) {
			err = fmt.Errorf("restart %d: report %+v, before the kill %+v", i, after, before)
		}
		ops.op(err)
	}
	return restartMs, nil
}
