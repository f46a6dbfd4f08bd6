package rms

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"dynp/internal/core"
	"dynp/internal/job"
	"dynp/internal/policy"
)

// Server exposes a Scheduler over a newline-delimited JSON protocol, the
// role the RMS frontend plays for cluster users. One JSON object per line
// in, one per line out.
//
// Requests:
//
//	{"op":"submit","width":4,"estimate":3600}
//	{"op":"done","id":7}
//	{"op":"cancel","id":7}
//	{"op":"job","id":7}
//	{"op":"status"}
//	{"op":"finished"}
//	{"op":"report"}             metrics over finished jobs (SLDwA, util, ...)
//	{"op":"tick","to":5000}     advance the virtual clock (virtual mode)
//	{"op":"fail","procs":8}     take processors out of service (operator op)
//	{"op":"restore","procs":8}  return failed processors to service
//	{"op":"trace","n":50}       the last n engine transitions (needs -trace)
//	{"op":"metrics"}            lifetime engine metrics (needs -trace)
//	{"op":"deliver","to":50,"completions":[7],"subs":[{"width":2,"estimate":60}]}
//	                            atomic event batch (virtual mode)
//	{"op":"health"}             liveness + readiness detail, always served
//	{"op":"ready"}              ok iff the server is ready to take load
//	{"op":"policies"}           registered policy names + family templates
//	{"op":"deciders"}           registered decider names + family templates
//	{"op":"quote","width":8,"estimate":3600,"count":2}
//	                            digital-twin prediction: when would these
//	                            jobs start if submitted now? (needs quotes
//	                            enabled on the scheduler)
//
// Responses carry {"ok":true,...} or {"ok":false,"error":"..."}. A
// response with "busy":true was shed by overload protection, not
// rejected on its merits: the request is safe to retry after backoff.
//
// Overload policy. MaxConns bounds the connections served at full
// service. The next MaxConns connections are still accepted but
// degraded: reads — which every client can get from a retry later, and
// which the scheduler answers from lock-free images anyway — are
// shed with busy responses, while mutating ops (submit, done, deliver)
// execute normally, so a flood of status pollers can never starve the
// operations that lose work when starved. Beyond that the connection is
// answered with one busy response and closed.
//
// Quotes shed before reads: each quote runs a twin simulation, so the
// quote lane is bounded even at full service — QuoteWorkers simulations
// run concurrently and at most QuoteMax quotes may be in flight (running
// or waiting for a worker) before further ones get busy responses. A
// plain read costs an atomic load and is never shed at full service;
// a quote is the first thing to go when load climbs, and mutators never
// wait on either.
type Server struct {
	sched *Scheduler
	// AllowTick enables the "tick" and "deliver" ops; a real-time daemon
	// drives the clock itself and rejects client clock movement.
	AllowTick bool
	// Trace backs the "trace" and "metrics" ops; both report an error
	// when it is nil. Attach the same EventTrace to the scheduler with
	// AddObserver and set it here before Listen.
	Trace *EventTrace
	// IdleTimeout bounds how long a connection may sit between requests
	// before the server drops it (0 = no limit). Set it before Listen.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write (0 = no limit); a client
	// that stops draining its socket cannot pin a handler forever.
	WriteTimeout time.Duration
	// MaxConns bounds full-service connections (0 = unlimited); see the
	// overload policy above. Set before Listen.
	MaxConns int
	// ReadyMaxQueue is the readiness watermark: with more than this many
	// jobs waiting the server reports not-ready (0 = no watermark), so
	// load balancers and submit scripts steer work elsewhere first.
	ReadyMaxQueue int
	// QuoteWorkers bounds the twin simulations running concurrently for
	// the "quote" op (0 = DefaultQuoteWorkers). Set before Listen.
	QuoteWorkers int
	// QuoteMax bounds the quotes in flight — running or queued for a
	// worker — before further ones are shed with busy responses
	// (0 = 4x QuoteWorkers; negative sheds every quote, an operational
	// kill switch). Set before Listen.
	QuoteMax int

	ready atomic.Bool

	quoteOnce    sync.Once
	quoteSem     chan struct{}
	quoteLimit   int64
	quotePending atomic.Int64

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	wg       sync.WaitGroup
}

// NewServer wraps a scheduler. The server starts ready; a daemon that
// must replay a journal first calls SetReady(false) before Listen and
// SetReady(true) when replay completes, keeping health checks
// responsive throughout.
func NewServer(s *Scheduler, allowTick bool) *Server {
	sv := &Server{sched: s, AllowTick: allowTick}
	sv.ready.Store(true)
	return sv
}

// SetReady flips the readiness gate. While not ready, every op except
// "health" and "ready" is rejected.
func (sv *Server) SetReady(ok bool) { sv.ready.Store(ok) }

// HealthInfo is the payload of the "health" and "ready" ops.
type HealthInfo struct {
	Ready      bool   `json:"ready"`
	Reason     string `json:"reason,omitempty"` // why not ready
	QueueDepth int    `json:"queue_depth"`
	Conns      int    `json:"conns"` // connections currently served
	JournalErr string `json:"journal_err,omitempty"`
}

// healthInfo computes the health verdict as of img. Ready means: the
// replay gate is open, the journal (if any) has not failed, and the
// waiting queue is under the watermark.
func (sv *Server) healthInfo(img *image) HealthInfo {
	sv.mu.Lock()
	conns := len(sv.conns)
	sv.mu.Unlock()
	h := HealthInfo{Ready: true, QueueDepth: len(img.Waiting), Conns: conns}
	if !sv.ready.Load() {
		h.Ready = false
		h.Reason = "starting: journal replay in progress"
	}
	if err := sv.sched.JournalErr(); err != nil {
		h.JournalErr = err.Error()
		if h.Ready {
			h.Ready = false
			h.Reason = "journal failed: " + err.Error()
		}
	}
	if h.Ready && sv.ReadyMaxQueue > 0 && h.QueueDepth > sv.ReadyMaxQueue {
		h.Ready = false
		h.Reason = fmt.Sprintf("queue depth %d over watermark %d", h.QueueDepth, sv.ReadyMaxQueue)
	}
	return h
}

// Request is one protocol request.
type Request struct {
	Op          string       `json:"op"`
	Width       int          `json:"width,omitempty"`
	Estimate    int64        `json:"estimate,omitempty"`
	ID          int64        `json:"id,omitempty"`
	To          int64        `json:"to,omitempty"`
	Procs       int          `json:"procs,omitempty"`
	N           int          `json:"n,omitempty"`           // trace: how many recent events (0 = all buffered)
	Count       int          `json:"count,omitempty"`       // quote: hypothetical replicas (0 = 1)
	Completions []int64      `json:"completions,omitempty"` // deliver
	Subs        []Submission `json:"subs,omitempty"`        // deliver
}

// Response is one protocol response. Now is always present — "now":0 at
// t=0 is a real clock reading, not an absent field.
type Response struct {
	OK       bool           `json:"ok"`
	Error    string         `json:"error,omitempty"`
	Busy     bool           `json:"busy,omitempty"` // shed by overload protection; retry later
	Job      *JobInfo       `json:"job,omitempty"`
	Jobs     []JobInfo      `json:"jobs,omitempty"` // deliver: the batch's submissions
	Status   *Status        `json:"status,omitempty"`
	Finished []JobInfo      `json:"finished,omitempty"`
	Report   *Report        `json:"report,omitempty"`
	Trace    []TraceEvent   `json:"trace,omitempty"`
	Metrics  *EngineMetrics `json:"metrics,omitempty"`
	Health   *HealthInfo    `json:"health,omitempty"`
	Policies []string       `json:"policies,omitempty"` // policies op
	Deciders []string       `json:"deciders,omitempty"` // deciders op
	Quotes   []Quote        `json:"quotes,omitempty"`   // quote op, one per replica
	Now      int64          `json:"now"`
}

// readOnlyOps are the ops a degraded connection sheds: each answered
// from one published image of the scheduler, all safe to retry elsewhere.
// Quotes are in the set — and additionally bounded by their own
// admission lane at full service, so they shed before plain reads do.
var readOnlyOps = map[string]bool{
	"job": true, "status": true, "finished": true,
	"report": true, "trace": true, "metrics": true, "quote": true,
}

// DefaultQuoteWorkers is the twin-simulation concurrency when
// Server.QuoteWorkers is left zero.
const DefaultQuoteWorkers = 4

// initQuoteLane sizes the quote admission lane from the configuration,
// once, on the first quote.
func (sv *Server) initQuoteLane() {
	workers := sv.QuoteWorkers
	if workers <= 0 {
		workers = DefaultQuoteWorkers
	}
	limit := int64(sv.QuoteMax)
	if sv.QuoteMax == 0 {
		limit = int64(4 * workers)
	}
	if limit < 0 {
		limit = 0 // kill switch: shed every quote
	}
	sv.quoteSem = make(chan struct{}, workers)
	sv.quoteLimit = limit
}

// quote runs one quote request through the bounded admission lane:
// over-limit requests are shed immediately with a busy response, the
// rest wait for one of the QuoteWorkers twin slots. Mutators are never
// behind this gate — quotes only ever throttle quotes.
func (sv *Server) quote(req Request) Response {
	sv.quoteOnce.Do(sv.initQuoteLane)
	if sv.quotePending.Add(1) > sv.quoteLimit {
		sv.quotePending.Add(-1)
		return Response{
			Busy:  true,
			Error: "rms: server busy: quote shed under load (retry)",
			Now:   sv.sched.Now(),
		}
	}
	sv.quoteSem <- struct{}{}
	img := sv.sched.img.Load()
	quotes, err := sv.sched.quoteIn(img, req.Width, req.Estimate, req.Count)
	<-sv.quoteSem
	sv.quotePending.Add(-1)
	if err != nil {
		return Response{Error: err.Error(), Now: img.Now}
	}
	return Response{OK: true, Quotes: quotes, Now: img.Now}
}

// Handle executes one request against the scheduler at full service.
func (sv *Server) Handle(req Request) Response {
	return sv.handle(req, false)
}

// handle executes one request. On a degraded connection (over the
// connection cap) read ops are shed with a busy response; mutating ops
// always run — losing a completion or a submission loses real work,
// losing a status read loses nothing.
func (sv *Server) handle(req Request, degraded bool) Response {
	fail := func(err error) Response { return Response{Error: err.Error(), Now: sv.sched.Now()} }
	// Health ops are served unconditionally — before the readiness gate,
	// on degraded connections — so probes keep working exactly when
	// things go wrong.
	switch req.Op {
	case "health", "ready":
		img := sv.sched.img.Load()
		h := sv.healthInfo(img)
		if req.Op == "ready" && !h.Ready {
			return Response{Error: "rms: not ready: " + h.Reason, Health: &h, Now: img.Now}
		}
		return Response{OK: true, Health: &h, Now: img.Now}
	}
	if !sv.ready.Load() {
		return fail(fmt.Errorf("rms: server starting (journal replay in progress)"))
	}
	if degraded && readOnlyOps[req.Op] {
		return Response{
			Busy:  true,
			Error: "rms: server busy: read shed under overload (retry)",
			Now:   sv.sched.Now(),
		}
	}
	switch req.Op {
	case "submit":
		info, err := sv.sched.Submit(req.Width, req.Estimate)
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, Job: &info, Now: sv.sched.Now()}
	case "done":
		info, err := sv.sched.Complete(job.ID(req.ID))
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, Job: &info, Now: sv.sched.Now()}
	case "cancel":
		if err := sv.sched.Cancel(job.ID(req.ID)); err != nil {
			return fail(err)
		}
		return Response{OK: true, Now: sv.sched.Now()}
	case "job":
		img := sv.sched.img.Load()
		info, err := sv.sched.jobIn(img, job.ID(req.ID))
		if err != nil {
			return Response{Error: err.Error(), Now: img.Now}
		}
		return Response{OK: true, Job: &info, Now: img.Now}
	case "status":
		st := sv.sched.Status()
		return Response{OK: true, Status: &st, Now: st.Now}
	case "finished":
		img := sv.sched.img.Load()
		return Response{OK: true, Finished: slices.Clone(img.Done), Now: img.Now}
	case "report":
		rep := sv.sched.Report()
		return Response{OK: true, Report: &rep, Now: rep.Now}
	case "tick":
		if !sv.AllowTick {
			return fail(fmt.Errorf("rms: tick disabled (real-time mode)"))
		}
		if err := sv.sched.Advance(req.To); err != nil {
			return fail(err)
		}
		return Response{OK: true, Now: sv.sched.Now()}
	case "deliver":
		if !sv.AllowTick {
			return fail(fmt.Errorf("rms: deliver disabled (real-time mode)"))
		}
		ids := make([]job.ID, len(req.Completions))
		for i, id := range req.Completions {
			ids[i] = job.ID(id)
		}
		jobs, err := sv.sched.Deliver(req.To, ids, req.Subs)
		if err != nil {
			return fail(err)
		}
		return Response{OK: true, Jobs: jobs, Now: sv.sched.Now()}
	case "fail":
		if err := sv.sched.Fail(req.Procs); err != nil {
			return fail(err)
		}
		st := sv.sched.Status()
		return Response{OK: true, Status: &st, Now: st.Now}
	case "restore":
		if err := sv.sched.Restore(req.Procs); err != nil {
			return fail(err)
		}
		st := sv.sched.Status()
		return Response{OK: true, Status: &st, Now: st.Now}
	case "quote":
		return sv.quote(req)
	case "policies":
		return Response{OK: true, Policies: policy.Names(), Now: sv.sched.Now()}
	case "deciders":
		return Response{OK: true, Deciders: core.DeciderNames(), Now: sv.sched.Now()}
	case "trace":
		if sv.Trace == nil {
			return fail(fmt.Errorf("rms: tracing disabled (start the daemon with -trace)"))
		}
		return Response{OK: true, Trace: sv.Trace.Last(req.N), Now: sv.sched.Now()}
	case "metrics":
		if sv.Trace == nil {
			return fail(fmt.Errorf("rms: tracing disabled (start the daemon with -trace)"))
		}
		m := sv.Trace.Metrics()
		return Response{OK: true, Metrics: &m, Now: sv.sched.Now()}
	default:
		return fail(fmt.Errorf("rms: unknown op %q", req.Op))
	}
}

// readDeadliner is the subset of net.Conn the server needs for idle
// timeouts and drain wake-ups; plain io.ReadWriters (tests, pipes
// without deadlines) simply serve without them.
type readDeadliner interface {
	SetReadDeadline(time.Time) error
}

// writeDeadliner is the subset of net.Conn the server needs to bound
// response writes against clients that stop draining their sockets.
type writeDeadliner interface {
	SetWriteDeadline(time.Time) error
}

// ServeConn speaks the protocol on one connection until EOF, the idle
// timeout, or a server drain. An oversized request line (beyond the
// 64 KiB protocol limit) is answered with an explicit error response
// before the connection closes, instead of dying silently.
func (sv *Server) ServeConn(conn io.ReadWriter) error {
	return sv.serveConn(conn, false)
}

func (sv *Server) serveConn(conn io.ReadWriter, degraded bool) error {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<16), 1<<16)
	rdl, hasRead := conn.(readDeadliner)
	wdl, hasWrite := conn.(writeDeadliner)
	// One output buffer per connection, reused response after response;
	// one grown past the line limit (a long finished list) is let go. One
	// request per connection too, zeroed before every decode: the slices
	// decoded into it are fresh each time, so what a handler keeps of a
	// request stays its own.
	var out []byte
	var req Request
	write := func(resp Response) error {
		var err error
		if out, err = appendResponse(out[:0], &resp); err != nil {
			return err
		}
		out = append(out, '\n')
		if hasWrite && sv.WriteTimeout > 0 {
			_ = wdl.SetWriteDeadline(time.Now().Add(sv.WriteTimeout))
		}
		_, err = conn.Write(out)
		if cap(out) > 1<<16 {
			out = nil
		}
		return err
	}
	for {
		if hasRead && sv.IdleTimeout > 0 {
			_ = rdl.SetReadDeadline(time.Now().Add(sv.IdleTimeout))
		}
		if !sc.Scan() {
			break
		}
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		req = Request{}
		var resp Response
		if err := decodeRequest(line, &req); err != nil {
			resp = Response{Error: fmt.Sprintf("rms: bad request: %v", err), Now: sv.sched.Now()}
		} else {
			resp = sv.handle(req, degraded)
		}
		if err := write(resp); err != nil {
			return err
		}
		if sv.isDraining() {
			// Graceful drain: the request in flight got its response;
			// stop before reading the next one.
			return nil
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			_ = write(Response{
				Error: "rms: request exceeds the 64 KiB line limit",
				Now:   sv.sched.Now(),
			})
		}
		return err
	}
	return nil
}

func (sv *Server) isDraining() bool {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	return sv.draining
}

// Listen serves the protocol on a TCP address until Close is called. It
// returns the bound address (useful with ":0").
func (sv *Server) Listen(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	sv.mu.Lock()
	sv.listener = l
	if sv.conns == nil {
		sv.conns = make(map[net.Conn]struct{})
	}
	sv.mu.Unlock()
	sv.wg.Add(1)
	go func() {
		defer sv.wg.Done()
		for {
			conn, err := l.Accept()
			if err != nil {
				return // listener closed
			}
			sv.mu.Lock()
			if sv.draining {
				sv.mu.Unlock()
				conn.Close()
				continue
			}
			n := len(sv.conns)
			degraded := false
			if sv.MaxConns > 0 {
				if n >= 2*sv.MaxConns {
					// Hard cap: one busy response, then the door.
					sv.mu.Unlock()
					sv.rejectBusy(conn)
					continue
				}
				degraded = n >= sv.MaxConns
			}
			sv.conns[conn] = struct{}{}
			sv.mu.Unlock()
			sv.wg.Add(1)
			go func() {
				defer sv.wg.Done()
				defer func() {
					sv.mu.Lock()
					delete(sv.conns, conn)
					sv.mu.Unlock()
					conn.Close()
				}()
				_ = sv.serveConn(conn, degraded)
			}()
		}
	}()
	return l.Addr(), nil
}

// rejectBusy answers a connection beyond the hard cap with a single
// busy response and closes it, under a bounded write deadline so a
// hostile peer cannot stall the accept loop's goroutine collection.
func (sv *Server) rejectBusy(conn net.Conn) {
	sv.wg.Add(1)
	go func() {
		defer sv.wg.Done()
		defer conn.Close()
		timeout := sv.WriteTimeout
		if timeout <= 0 {
			timeout = 2 * time.Second
		}
		_ = conn.SetWriteDeadline(time.Now().Add(timeout))
		out, _ := appendResponse(nil, &Response{ // no rarely used field: cannot fail
			Busy:  true,
			Error: "rms: server busy: connection limit reached (retry)",
			Now:   sv.sched.Now(),
		})
		_, _ = conn.Write(append(out, '\n'))
	}()
}

// Close stops the listener and drains gracefully: requests already in
// flight get their responses, blocked reads are woken by an immediate
// read deadline, and every handler has exited — and closed its
// connection — before Close returns.
func (sv *Server) Close() error {
	sv.mu.Lock()
	l := sv.listener
	sv.listener = nil
	sv.draining = true
	for c := range sv.conns {
		_ = c.SetReadDeadline(time.Now())
	}
	sv.mu.Unlock()
	var err error
	if l != nil {
		err = l.Close()
	}
	sv.wg.Wait()
	return err
}
