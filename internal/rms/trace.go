package rms

import (
	"sync"

	"dynp/internal/engine"
	"dynp/internal/policy"
)

// TraceEvent is the wire form of one observed engine transition, as
// served by the daemon's "trace" op: job pointers become IDs and the
// event kind becomes its string name, so the record is self-contained
// and JSON-friendly.
type TraceEvent struct {
	Seq     uint64 `json:"seq"` // the transition's number over the scheduler's life (engine.Event.Seq)
	Kind    string `json:"kind"`
	Time    int64  `json:"time"`
	Job     int64  `json:"job,omitempty"`   // job-scoped kinds only
	Procs   int    `json:"procs,omitempty"` // job width, or processors failed/restored
	Queued  int    `json:"queued"`
	Running int    `json:"running"`
	Used    int    `json:"used"`
	Policy  string `json:"policy"`
	Case    string `json:"case,omitempty"`    // plan events of a dynP driver: Table-1 decision case
	PlanNs  int64  `json:"plan_ns,omitempty"` // plan events: wall-clock planning latency
}

// EngineMetrics is what the daemon's "metrics" op serves: the
// scheduler's lifetime counts (Scheduler.Metrics), exact across restarts,
// and, with an EventTrace attached, its wall-clock planning latencies.
type EngineMetrics struct {
	Events      map[string]int64 `json:"events"`          // transitions by kind
	Cases       map[string]int64 `json:"cases,omitempty"` // Table-1 decision cases (dynP drivers)
	Plans       int64            `json:"plans"`           // scheduling events
	PlanNsTotal int64            `json:"plan_ns_total"`   // cumulative planning latency the trace saw
	PlanNsMax   int64            `json:"plan_ns_max"`     // worst single planning latency the trace saw
	Dropped     uint64           `json:"dropped"`         // transitions older than the trace's ring holds
}

// EventTrace is an engine observer that keeps the most recent
// transitions in a bounded ring buffer and sums the wall-clock planning
// latencies it sees. Attach one with Scheduler.AddObserver; it is safe
// for concurrent readers (the protocol server) while the scheduler
// appends. It only watches: no checkpoint carries it, so after a restart
// its ring holds the transitions replayed since the newest checkpoint,
// numbered as they were the first time, and its latency sums start over.
type EventTrace struct {
	mu    sync.Mutex
	buf   []TraceEvent
	start int // index of the oldest buffered event
	n     int // buffered events

	planNsTotal int64
	planNsMax   int64
}

// NewEventTrace returns a trace retaining the last capacity events
// (minimum 1).
func NewEventTrace(capacity int) *EventTrace {
	return &EventTrace{buf: make([]TraceEvent, max(capacity, 1))}
}

// Observe implements engine.Observer.
func (t *EventTrace) Observe(ev engine.Event) {
	te := TraceEvent{
		Seq:     uint64(ev.Seq),
		Kind:    ev.Kind.String(),
		Time:    ev.Time,
		Procs:   ev.Procs,
		Queued:  ev.Queued,
		Running: ev.Running,
		Used:    ev.Used,
		Policy:  policyName(ev.Policy),
		Case:    ev.Case,
		PlanNs:  ev.Latency.Nanoseconds(),
	}
	if ev.Job != nil {
		te.Job = int64(ev.Job.ID)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.n == len(t.buf) {
		t.start = (t.start + 1) % len(t.buf)
	} else {
		t.n++
	}
	t.buf[(t.start+t.n-1)%len(t.buf)] = te
	t.planNsTotal += te.PlanNs
	t.planNsMax = max(t.planNsMax, te.PlanNs)
}

// Last returns the most recent n buffered events in chronological order
// (all of them when n < 1 or n exceeds the buffer).
func (t *EventTrace) Last(n int) []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 1 || n > t.n {
		n = t.n
	}
	out := make([]TraceEvent, 0, n)
	for i := t.n - n; i < t.n; i++ {
		out = append(out, t.buf[(t.start+i)%len(t.buf)])
	}
	return out
}

// fill completes m, a scheduler's counts, with what only the trace
// knows: its latency sums, and how many of m's transitions are older
// than its ring holds.
func (t *EventTrace) fill(m *EngineMetrics) {
	var total int64
	for _, n := range m.Events {
		total += n
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	m.PlanNsTotal, m.PlanNsMax = t.planNsTotal, t.planNsMax
	m.Dropped = uint64(max(total-int64(len(t.buf)), 0))
}

// policyName is a nil-safe ev.Policy.Name(): a driver that has not
// planned yet may report a nil active policy.
func policyName(p policy.Policy) string {
	if p == nil {
		return ""
	}
	return p.Name()
}
