package rms

// Report is the online scheduler's self-assessment over its finished
// jobs — the same metrics the paper evaluates offline (Section 4.1),
// computed from what the RMS observed.
type Report struct {
	Now        int64
	Jobs       int     // finished jobs (completed + killed + failed)
	Killed     int     // jobs terminated at their estimate
	Failed     int     // jobs terminated by a capacity failure
	SLDwA      float64 // slowdown weighted by actual area
	ART        float64 // average response time, seconds
	AWT        float64 // average waiting time, seconds
	MaxWait    int64
	Util       float64 // used area / (capacity x observed span)
	FirstSub   int64
	LastFinish int64
}

// reportAgg accumulates the Report sums incrementally, one finished job
// at a time in finish order — the same order (and therefore the same
// floating-point results) the retired per-read loop over the done list
// produced. Maintaining it on the write path makes Report O(1) on the
// read path: every image carries a copy.
type reportAgg struct {
	n                int // finished jobs folded in
	killed, failed   int
	first, last      int64
	area, weighted   float64
	waitSum, respSum float64
	maxWait          int64
}

// add folds one finished job into the sums. Called from the engine's
// Finished hook under the scheduling lock.
func (a *reportAgg) add(j JobInfo) {
	switch j.State {
	case StateKilled:
		a.killed++
	case StateFailed:
		a.failed++
	}
	if a.n == 0 {
		a.first = j.Submitted
	}
	a.n++
	if j.Submitted < a.first {
		a.first = j.Submitted
	}
	if j.Finished > a.last {
		a.last = j.Finished
	}
	run := j.Finished - j.Started
	if run < 1 {
		run = 1
	}
	wait := j.Started - j.Submitted
	resp := j.Finished - j.Submitted
	area := float64(run) * float64(j.Width)
	a.area += area
	a.weighted += area * float64(resp) / float64(run)
	a.waitSum += float64(wait)
	a.respSum += float64(resp)
	if wait > a.maxWait {
		a.maxWait = wait
	}
}

// Report computes the metrics over all finished jobs, as of the last
// completed mutation. With no finished jobs, the zero Report (with the
// current time) is returned. It never takes the scheduling lock: the
// report is derived from the aggregates of the published image.
func (s *Scheduler) Report() Report {
	img := s.img.Load()
	a := &img.agg
	rep := Report{Now: img.Now, Jobs: a.n}
	if a.n == 0 {
		return rep
	}
	n := float64(a.n)
	rep.Killed = a.killed
	rep.Failed = a.failed
	rep.SLDwA = a.weighted / a.area
	rep.ART = a.respSum / n
	rep.AWT = a.waitSum / n
	rep.MaxWait = a.maxWait
	rep.FirstSub = a.first
	rep.LastFinish = a.last
	if span := a.last - a.first; span > 0 {
		rep.Util = a.area / (float64(img.capacity) * float64(span))
	}
	return rep
}
