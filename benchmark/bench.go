package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"dynp/internal/experiment"
	"dynp/internal/job"
	"dynp/internal/sim"
	"dynp/internal/stats"
)

// tally counts operations: one sim.Run, one sweep, one wire request or
// one oracle check each. A wrong result is a failed operation.
type tally struct {
	attempted, failed int
	errs              []error
}

func (t *tally) op(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 8 {
			t.errs = append(t.errs, err)
		}
	}
}

func (t *tally) add(o *replayResult) {
	t.attempted += o.attempted
	t.failed += o.failed
	if o.err != nil && len(t.errs) < 8 {
		t.errs = append(t.errs, o.err)
	}
}

// options are the knobs of one invocation that the measurements see.
type options struct {
	seed    uint64
	seconds float64
	passes  int // > 0: exactly this many timed passes instead of -seconds
	smoke   bool
	update  bool   // record the reference fingerprints instead of checking them
	workDir string // where the dynpd binary and the journals go
}

// minPasses is the fewest timed passes a time-boxed run makes, so the
// reported median is always a median.
const minPasses = 3

// more reports whether another timed pass is due.
func (o options) more(done int, start time.Time) bool {
	if o.passes > 0 {
		return done < o.passes
	}
	return done < minPasses || time.Since(start).Seconds() < o.seconds
}

// measurement is what one run of one workload produced.
type measurement struct {
	tally
	values  map[string]float64 // metric name -> value
	samples map[string]int     // metric name -> observations behind it
	notes   map[string]any     // context for the report line
}

func newMeasurement() *measurement {
	return &measurement{values: map[string]float64{}, samples: map[string]int{}, notes: map[string]any{}}
}

func (m *measurement) set(name string, v float64, n int) {
	m.values[name] = v
	m.samples[name] = n
}

// latencies reports the median and the tail of one latency sample under
// the given metric names, and notes which percentile the tail is.
func (m *measurement) latencies(p50, tail string, sample []float64) {
	s := sortedCopy(sample)
	p := tailPercentile(len(s))
	m.set(p50, stats.Quantile(s, 0.5), len(s))
	m.set(tail, percentile(s, p), len(s))
	m.notes[tail+"_percentile"] = p
}

// setup prepares what every kind of run needs: the seed's time origin,
// the job sets, the oracle, and the per-seed fresh-input check.
func (s spec) setup(o options, ops *tally) (offset int64, sets []*job.Set, orc *oracle, err error) {
	offset = timeOrigin(o.seed)
	if sets, err = s.jobSets(offset); err != nil {
		return 0, nil, nil, err
	}
	if o.smoke || o.update {
		orc, err = liveOracle(sets, offset)
	} else {
		orc, err = loadOracle(s.name)
	}
	if err != nil {
		return 0, nil, nil, err
	}
	ops.op(freshCheck(s, o.seed))
	return offset, sets, orc, nil
}

// simPass simulates every set once, checking each run against the
// oracle, and returns the pass's wall seconds and per-run milliseconds.
func simPass(sets []*job.Set, offset int64, orc *oracle, ops *tally) (wall float64, runMs []float64) {
	for _, set := range sets {
		d := newDriver()
		t0 := time.Now()
		res, err := sim.Run(set, d)
		dt := time.Since(t0)
		wall += dt.Seconds()
		runMs = append(runMs, ms(dt))
		if err == nil {
			err = orc.check(set.Name, fingerprint(res, d.Stats(), offset))
		}
		ops.op(err)
	}
	return wall, runMs
}

func totalJobs(sets []*job.Set) (n int) {
	for _, s := range sets {
		n += len(s.Jobs)
	}
	return n
}

// measure runs one workload untraced and reports the end-to-end metrics.
func (s spec) measure(o options) (*measurement, error) {
	m := newMeasurement()
	begin := time.Now()
	offset, sets, orc, err := s.setup(o, &m.tally)
	if err != nil {
		return nil, err
	}
	var passS, opMs []float64
	jobs := totalJobs(sets)
	rssPid := os.Getpid()
	var before, after runtime.MemStats // around the timed phase

	switch s.kind {
	case kindSim:
		simPass(sets, offset, orc, new(tally)) // warm-up: plan pools, generator cache
		m.set("setup_s", time.Since(begin).Seconds(), 1)
		runtime.ReadMemStats(&before)
		for start := time.Now(); o.more(len(passS), start); {
			wall, runMs := simPass(sets, offset, orc, &m.tally)
			passS, opMs = append(passS, wall), append(opMs, runMs...)
		}

	case kindSweep:
		jobs = s.sweepJobs(s.sets, s.jobs)
		tables, err := s.sweep(s.sets, s.jobs, sweepWorkers(), experiment.PaperSchedulers(), nil) // warm-up
		if err != nil {
			return nil, err
		}
		if o.smoke || o.update {
			orc.want["tables"] = hashBytes(tables)
		}
		m.set("setup_s", time.Since(begin).Seconds(), 1)
		runtime.ReadMemStats(&before)
		for start := time.Now(); o.more(len(passS), start); {
			t0 := time.Now()
			tables, err := s.sweep(s.sets, s.jobs, sweepWorkers(), experiment.PaperSchedulers(), nil)
			dt := time.Since(t0)
			passS, opMs = append(passS, dt.Seconds()), append(opMs, ms(dt))
			if err == nil {
				err = orc.check("tables", hashBytes(tables))
			}
			m.op(err)
		}

	case kindWire:
		set := sets[0]
		d := newDriver()
		ref, err := sim.Run(set, d)
		if err != nil {
			return nil, err
		}
		m.op(orc.check(set.Name, fingerprint(ref, d.Stats(), offset)))
		stream := buildStream(set, ref)
		w, err := startWire(set.Machine, o)
		if err != nil {
			return nil, err
		}
		defer w.close()
		m.set("setup_s", time.Since(begin).Seconds(), 1)

		runtime.ReadMemStats(&before)
		r := replay(w.mut, w.read, set, stream, nil)
		runtime.ReadMemStats(&after)
		r.checkFinished(w.read, set, ref)
		m.add(r)
		passS, opMs = []float64{r.wall}, r.deliverMs
		rssPid = w.pid()
		m.set("deliver_ops_per_s", float64(len(r.deliverMs))/r.wall, len(r.deliverMs))
		m.latencies("status_p50_ms", "status_tail_ms", r.statusMs)
		m.latencies("quote_p50_ms", "quote_tail_ms", r.quoteMs)
		m.notes["delivers"], m.notes["statuses"], m.notes["quotes"] = len(r.deliverMs), len(r.statusMs), len(r.quoteMs)
	}

	if after.TotalAlloc == 0 { // the wire workload read it before fetching the finished list
		runtime.ReadMemStats(&after)
	}
	m.set("alloc_mb_per_pass", float64(after.TotalAlloc-before.TotalAlloc)/float64(len(passS))/(1<<20), len(passS))
	pass := median(passS)
	m.set("pass_s", pass, len(passS))
	m.set("sim_jobs_per_s", float64(jobs)/pass, len(passS))
	m.latencies("op_p50_ms", "op_tail_ms", opMs)
	rss, err := peakRSSMiB(rssPid)
	if err != nil {
		return nil, err
	}
	m.set("peak_rss_mb", rss, 1)
	m.notes["pass_s_each"], m.notes["jobs_per_pass"] = passS, jobs
	if o.update {
		if err := orc.save(s.name); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// wire is the system under test of the wire workload with its two
// connections: a dynpd subprocess over TCP, or — at smoke size, where
// `go test` must not compile and spawn a daemon — the same server
// in-process over in-memory pipes.
type wire struct {
	mut, read rmsConn
	daemon    *daemon
	closers   []func() error
}

func startWire(procs int, o options) (*wire, error) {
	w := &wire{}
	if o.smoke {
		sched, trace, err := newScheduler(procs)
		if err != nil {
			return nil, err
		}
		sv := newServer(sched, trace)
		for _, c := range []*rmsConn{&w.mut, &w.read} {
			client, stop, err := pipeClient(sv)
			if err != nil {
				w.close()
				return nil, err
			}
			*c = client
			w.closers = append(w.closers, stop)
		}
		return w, nil
	}
	bin, err := buildDaemon(o.workDir)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workDir, "journal-")
	if err != nil {
		return nil, err
	}
	w.closers = append(w.closers, func() error { return os.RemoveAll(dir) })
	if w.daemon, err = startDaemon(bin, dir, procs); err != nil {
		w.close()
		return nil, err
	}
	w.closers = append(w.closers, w.daemon.stop)
	for _, c := range []*rmsConn{&w.mut, &w.read} {
		client, err := w.daemon.dial()
		if err != nil {
			w.close()
			return nil, err
		}
		*c = client
		w.closers = append(w.closers, client.Close)
	}
	return w, nil
}

// pid is the process whose memory the wire workload reports.
func (w *wire) pid() int {
	if w.daemon != nil {
		return w.daemon.cmd.Process.Pid
	}
	return os.Getpid()
}

// close releases everything in reverse order: connections, then the
// daemon (waited for), then its journal directory.
func (w *wire) close() {
	for i := len(w.closers) - 1; i >= 0; i-- {
		if err := w.closers[i](); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: closing wire:", err)
		}
	}
	w.closers = nil
}
