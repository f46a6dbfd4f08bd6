package dynp

import (
	"io"

	"dynp/internal/gantt"
	"dynp/internal/rms"
	"dynp/internal/vfs"
)

// Online RMS re-exports: the dynP scheduler embedded in a live,
// clock-driven resource manager (see internal/rms), plus schedule
// visualisation (internal/gantt).
type (
	// OnlineScheduler is a planning-based RMS core driven by an
	// explicit clock: Submit/Complete/Cancel/Advance.
	OnlineScheduler = rms.Scheduler
	// OnlineJobInfo is the externally visible status of one online job.
	OnlineJobInfo = rms.JobInfo
	// OnlineStatus is a snapshot of the online system.
	OnlineStatus = rms.Status
	// OnlineServer exposes an OnlineScheduler over newline-delimited
	// JSON (see cmd/dynpd).
	OnlineServer = rms.Server
	// JobState is the online job lifecycle state.
	JobState = rms.JobState
	// OnlineSubmission is one job of an atomic Deliver batch.
	OnlineSubmission = rms.Submission
	// OnlineReport is the online scheduler's self-assessment (SLDwA,
	// utilization, ...) over finished jobs.
	OnlineReport = rms.Report
	// OnlineJournal is the write-ahead event journal that makes an
	// online scheduler crash-safe (see dynpd -journal).
	OnlineJournal = rms.Journal
	// OnlineEventTrace is a ring-buffer engine observer: attach one to
	// an OnlineScheduler with AddObserver to serve the daemon's "trace"
	// op and the planning latencies of its "metrics" op. It only
	// watches: no checkpoint carries it.
	OnlineEventTrace = rms.EventTrace
	// OnlineTraceEvent is the wire form of one observed engine
	// transition.
	OnlineTraceEvent = rms.TraceEvent
	// OnlineEngineMetrics is what the "metrics" op serves: the
	// scheduler's lifetime transition and decision counts, which
	// checkpoints carry and replay verifies, plus the trace's latencies.
	OnlineEngineMetrics = rms.EngineMetrics
	// OnlineHealthInfo is the server's health/readiness verdict: liveness
	// plus why (or whether) the daemon is ready for traffic.
	OnlineHealthInfo = rms.HealthInfo
	// OnlineServerError is a typed server-side rejection; its Busy flag
	// marks overload shedding, which is retryable.
	OnlineServerError = rms.ServerError
	// OnlineQuote is a digital-twin prediction of when a hypothetical
	// job would start, finish and wait if submitted right now (see
	// OnlineScheduler.EnableQuotes / Quote and the "quote" protocol op).
	OnlineQuote = rms.Quote
	// JournalFS abstracts the filesystem under a journal — swap in a
	// fault-injecting implementation to test crash recovery.
	JournalFS = vfs.FS
	// JournalFaultConfig configures seeded disk-fault injection (torn
	// writes, bit flips, failed syncs) for recovery testing.
	JournalFaultConfig = vfs.FaultConfig
	// GanttChart is a processor-time occupancy chart of a completed
	// run.
	GanttChart = gantt.Chart
)

// NewOnlineEventTrace returns an engine-event ring buffer retaining the
// last capacity transitions.
func NewOnlineEventTrace(capacity int) *OnlineEventTrace { return rms.NewEventTrace(capacity) }

// The online job lifecycle states.
const (
	StateWaiting   = rms.StateWaiting
	StateRunning   = rms.StateRunning
	StateCompleted = rms.StateCompleted
	StateKilled    = rms.StateKilled
	// StateFailed marks a job killed because its processors failed, not
	// because its estimate expired.
	StateFailed = rms.StateFailed
)

// NeverStart is the planned-start sentinel of a waiting job that cannot
// run until failed processors are restored.
const NeverStart = rms.NeverStart

// OpenOnlineJournal opens (or creates) a write-ahead journal, repairing
// a torn tail after a crash. Replay it into a fresh scheduler (restoring
// from the newest valid checkpoint), then attach it with SetJournal.
func OpenOnlineJournal(path string) (*OnlineJournal, error) { return rms.OpenJournal(path) }

// OpenOnlineJournalFS is OpenOnlineJournal on an explicit filesystem —
// pass a fault-injecting JournalFS to test crash recovery.
func OpenOnlineJournalFS(fsys JournalFS, path string) (*OnlineJournal, error) {
	return rms.OpenJournalFS(fsys, path)
}

// NewFaultyJournalFS wraps the real filesystem in seeded disk-fault
// injection for recovery testing.
func NewFaultyJournalFS(cfg JournalFaultConfig) JournalFS { return vfs.NewFaulty(vfs.OS, cfg) }

// ParseJournalFaultConfig parses a disk-fault spec like
// "seed=7,writefail=0.01,short=0.02,bitflip=0,syncfail=0.005,rename=0".
func ParseJournalFaultConfig(spec string) (JournalFaultConfig, error) {
	return vfs.ParseFaultConfig(spec)
}

// NewOnlineScheduler returns an online RMS core for a machine with the
// given capacity using the given scheduler, with the clock at startTime.
func NewOnlineScheduler(capacity int, s Scheduler, startTime int64) (*OnlineScheduler, error) {
	return rms.New(capacity, s, startTime)
}

// NewOnlineServer wraps an online scheduler in the JSON protocol server.
// allowTick enables client-driven virtual clocks.
func NewOnlineServer(s *OnlineScheduler, allowTick bool) *OnlineServer {
	return rms.NewServer(s, allowTick)
}

// NewGanttChart reconstructs a processor assignment from a completed
// simulation for rendering with ASCII or SVG.
func NewGanttChart(res *Result) (*GanttChart, error) { return gantt.FromResult(res) }

// WriteScheduleSVG renders a completed run as an SVG occupancy chart in
// one call.
func WriteScheduleSVG(w io.Writer, res *Result, width, height int) error {
	c, err := gantt.FromResult(res)
	if err != nil {
		return err
	}
	return c.SVG(w, width, height)
}
