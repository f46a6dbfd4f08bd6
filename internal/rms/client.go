package rms

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"dynp/internal/job"
	"dynp/internal/rng"
)

// ServerError is a deterministic server-side rejection ({"ok":false}).
// Busy marks overload shedding: the request was not judged on its
// merits and is safe to retry after backoff — the client does so
// automatically for idempotent calls.
type ServerError struct {
	Msg  string
	Busy bool
}

func (e *ServerError) Error() string { return "rms: server: " + e.Msg }

// Default reliability parameters for ClientOptions zero values.
const (
	DefaultCallTimeout = 10 * time.Second
	DefaultRetries     = 3
	DefaultBackoff     = 50 * time.Millisecond
	DefaultMaxBackoff  = 2 * time.Second
)

// ClientOptions configure the client's behaviour on an unreliable
// network. The zero value means "use the defaults above".
type ClientOptions struct {
	// Timeout is the per-call deadline covering send and receive.
	// Negative disables deadlines entirely.
	Timeout time.Duration
	// Retries is the number of extra attempts for idempotent calls
	// (Status, Job, Finished, Report) after a network failure; each
	// attempt reconnects first if the connection died. Mutating calls
	// (Submit, Done, Cancel, Tick, Fail, Restore) are never retried
	// automatically — a lost response leaves the outcome unknown.
	// Negative disables retries.
	Retries int
	// Backoff is the initial delay before a retry; it doubles per
	// attempt up to MaxBackoff, with deterministic jitter drawn from
	// Seed in [delay/2, delay].
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Seed seeds the jitter stream, making retry timing reproducible.
	Seed uint64
	// Dialer replaces the default TCP dialer; fault-injection harnesses
	// (internal/rms/chaos) and tests hook in here.
	Dialer func() (net.Conn, error)
}

func (o ClientOptions) withDefaults() ClientOptions {
	if o.Timeout == 0 {
		o.Timeout = DefaultCallTimeout
	}
	if o.Retries == 0 {
		o.Retries = DefaultRetries
	}
	if o.Retries < 0 {
		o.Retries = 0
	}
	if o.Backoff <= 0 {
		o.Backoff = DefaultBackoff
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = DefaultMaxBackoff
	}
	return o
}

// Client is a typed client for the Server protocol. It is not safe for
// concurrent use; open one client per goroutine (the server side handles
// any number of connections). On network failures the client closes the
// poisoned connection and reconnects — transparently, with exponential
// backoff, for idempotent calls; on the next call otherwise.
type Client struct {
	opts   ClientOptions
	dial   func() (net.Conn, error)
	jitter *rng.Stream
	sleep  func(time.Duration) // test hook; time.Sleep

	// One encoder and one decoder per connection: responses are decoded
	// straight off the socket, with no line copied out first. A fresh
	// connection gets fresh ones, so a poisoned stream never outlives it.
	conn net.Conn
	dec  *json.Decoder
	enc  *json.Encoder
}

// Dial connects to a dynpd server with default reliability options.
func Dial(addr string) (*Client, error) {
	return DialOptions(addr, ClientOptions{})
}

// DialOptions connects to a dynpd server. The initial connection is
// attempted once, eagerly, so configuration errors surface immediately;
// reconnection and retries apply to later calls.
func DialOptions(addr string, opts ClientOptions) (*Client, error) {
	opts = opts.withDefaults()
	dial := opts.Dialer
	if dial == nil {
		dial = func() (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	c := &Client{
		opts:   opts,
		dial:   dial,
		jitter: newClientJitter(opts.Seed),
		sleep:  time.Sleep,
	}
	if err := c.connect(); err != nil {
		return nil, fmt.Errorf("rms: dial %s: %w", addr, err)
	}
	return c, nil
}

// newClientJitter derives the deterministic backoff-jitter stream for a
// given seed.
func newClientJitter(seed uint64) *rng.Stream {
	return rng.New(seed).Derive(0x636c69656e74) // "client"
}

// connect establishes a fresh connection, replacing any previous one.
func (c *Client) connect() error {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
	conn, err := c.dial()
	if err != nil {
		return err
	}
	c.conn = conn
	c.dec = json.NewDecoder(conn)
	c.enc = json.NewEncoder(conn)
	return nil
}

// Close closes the connection.
func (c *Client) Close() error {
	if c.conn == nil {
		return nil
	}
	err := c.conn.Close()
	c.conn = nil
	return err
}

// backoffDelay returns the jittered exponential backoff before retry
// attempt i (0-based).
func (c *Client) backoffDelay(i int) time.Duration {
	d := c.opts.Backoff
	for ; i > 0 && d < c.opts.MaxBackoff; i-- {
		d *= 2
	}
	if d > c.opts.MaxBackoff {
		d = c.opts.MaxBackoff
	}
	half := int64(d / 2)
	if half < 1 {
		return d
	}
	return time.Duration(half + c.jitter.Int63n(half+1))
}

// roundTrip performs one request/response exchange on the current
// connection under the per-call deadline.
func (c *Client) roundTrip(req Request) (Response, error) {
	if c.opts.Timeout > 0 {
		_ = c.conn.SetDeadline(time.Now().Add(c.opts.Timeout))
	}
	if err := c.enc.Encode(req); err != nil {
		return Response{}, fmt.Errorf("rms: send: %w", err)
	}
	var resp Response
	if err := c.dec.Decode(&resp); err != nil {
		return Response{}, fmt.Errorf("rms: receive: %w", err)
	}
	return resp, nil
}

// call executes one protocol request. Idempotent requests survive
// network faults: the client reconnects and retries with backoff.
// Server-side rejections ({"ok":false}) are deterministic and are never
// retried.
func (c *Client) call(req Request, idempotent bool) (Response, error) {
	attempts := 1
	if idempotent {
		attempts += c.opts.Retries
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			c.sleep(c.backoffDelay(attempt - 1))
		}
		if c.conn == nil {
			if err := c.connect(); err != nil {
				lastErr = fmt.Errorf("rms: reconnect: %w", err)
				if !idempotent {
					return Response{}, lastErr
				}
				continue
			}
		}
		resp, err := c.roundTrip(req)
		if err == nil {
			if !resp.OK {
				serr := &ServerError{Msg: resp.Error, Busy: resp.Busy}
				if resp.Busy && idempotent {
					// Overload shedding, not a verdict: back off and
					// retry. The connection itself is healthy.
					lastErr = serr
					continue
				}
				return resp, serr
			}
			return resp, nil
		}
		// The stream is poisoned (a partial exchange may be buffered);
		// drop the connection so the next attempt starts clean.
		lastErr = err
		c.conn.Close()
		c.conn = nil
		if !idempotent {
			break
		}
	}
	return Response{}, lastErr
}

// Submit submits a job and returns its info (state, planned start).
func (c *Client) Submit(width int, estimate int64) (JobInfo, error) {
	resp, err := c.call(Request{Op: "submit", Width: width, Estimate: estimate}, false)
	if err != nil {
		return JobInfo{}, err
	}
	if resp.Job == nil {
		return JobInfo{}, fmt.Errorf("rms: submit: empty response")
	}
	return *resp.Job, nil
}

// Done reports a running job's completion.
func (c *Client) Done(id job.ID) (JobInfo, error) {
	resp, err := c.call(Request{Op: "done", ID: int64(id)}, false)
	if err != nil {
		return JobInfo{}, err
	}
	if resp.Job == nil {
		return JobInfo{}, fmt.Errorf("rms: done: empty response")
	}
	return *resp.Job, nil
}

// Cancel removes a waiting job.
func (c *Client) Cancel(id job.ID) error {
	_, err := c.call(Request{Op: "cancel", ID: int64(id)}, false)
	return err
}

// Job queries one job. Idempotent: retried on network failures.
func (c *Client) Job(id job.ID) (JobInfo, error) {
	resp, err := c.call(Request{Op: "job", ID: int64(id)}, true)
	if err != nil {
		return JobInfo{}, err
	}
	if resp.Job == nil {
		return JobInfo{}, fmt.Errorf("rms: job: empty response")
	}
	return *resp.Job, nil
}

// Status queries the system snapshot. Idempotent: retried on network
// failures.
func (c *Client) Status() (Status, error) {
	resp, err := c.call(Request{Op: "status"}, true)
	if err != nil {
		return Status{}, err
	}
	if resp.Status == nil {
		return Status{}, fmt.Errorf("rms: status: empty response")
	}
	return *resp.Status, nil
}

// Finished lists completed, killed and failed jobs. Idempotent: retried
// on network failures.
func (c *Client) Finished() ([]JobInfo, error) {
	resp, err := c.call(Request{Op: "finished"}, true)
	if err != nil {
		return nil, err
	}
	return resp.Finished, nil
}

// Report fetches the server's metrics over finished jobs. Idempotent:
// retried on network failures.
func (c *Client) Report() (Report, error) {
	resp, err := c.call(Request{Op: "report"}, true)
	if err != nil {
		return Report{}, err
	}
	if resp.Report == nil {
		return Report{}, fmt.Errorf("rms: report: empty response")
	}
	return *resp.Report, nil
}

// Tick advances the server's virtual clock (virtual mode only).
func (c *Client) Tick(to int64) (int64, error) {
	resp, err := c.call(Request{Op: "tick", To: to}, false)
	if err != nil {
		return 0, err
	}
	return resp.Now, nil
}

// Fail takes procs processors out of service on the server (operator
// op); it returns the resulting status.
func (c *Client) Fail(procs int) (Status, error) {
	resp, err := c.call(Request{Op: "fail", Procs: procs}, false)
	if err != nil {
		return Status{}, err
	}
	if resp.Status == nil {
		return Status{}, fmt.Errorf("rms: fail: empty response")
	}
	return *resp.Status, nil
}

// Restore returns failed processors to service on the server; it
// returns the resulting status.
func (c *Client) Restore(procs int) (Status, error) {
	resp, err := c.call(Request{Op: "restore", Procs: procs}, false)
	if err != nil {
		return Status{}, err
	}
	if resp.Status == nil {
		return Status{}, fmt.Errorf("rms: restore: empty response")
	}
	return *resp.Status, nil
}

// Deliver applies an atomic event batch on the server (virtual mode
// only): move the clock to t, complete the given jobs, submit subs, one
// replanning step. It returns the submissions' infos, in order.
func (c *Client) Deliver(t int64, completions []job.ID, subs []Submission) ([]JobInfo, error) {
	ids := make([]int64, len(completions))
	for i, id := range completions {
		ids[i] = int64(id)
	}
	resp, err := c.call(Request{Op: "deliver", To: t, Completions: ids, Subs: subs}, false)
	if err != nil {
		return nil, err
	}
	return resp.Jobs, nil
}

// Quote asks the server's digital twin when count hypothetical jobs of
// the given width and estimate would start if submitted now; it returns
// one Quote per replica (count 0 means 1). Idempotent — a quote changes
// nothing on the server — so it is retried on network failures and,
// with backoff, on busy shed responses.
func (c *Client) Quote(width int, estimate int64, count int) ([]Quote, error) {
	resp, err := c.call(Request{Op: "quote", Width: width, Estimate: estimate, Count: count}, true)
	if err != nil {
		return nil, err
	}
	if len(resp.Quotes) == 0 {
		return nil, fmt.Errorf("rms: quote: empty response")
	}
	return resp.Quotes, nil
}

// Health fetches the server's health detail. It is served even while
// the server is starting up or its journal has failed. Idempotent:
// retried on network failures.
func (c *Client) Health() (HealthInfo, error) {
	resp, err := c.call(Request{Op: "health"}, true)
	if err != nil {
		return HealthInfo{}, err
	}
	if resp.Health == nil {
		return HealthInfo{}, fmt.Errorf("rms: health: empty response")
	}
	return *resp.Health, nil
}

// Ready asks whether the server is ready to take load. A reachable
// server that answers "not ready" yields ok false with its reason and a
// nil error; only transport failures return an error.
func (c *Client) Ready() (bool, string, error) {
	resp, err := c.call(Request{Op: "ready"}, true)
	if err != nil {
		var serr *ServerError
		if errors.As(err, &serr) {
			reason := serr.Msg
			if resp.Health != nil && resp.Health.Reason != "" {
				reason = resp.Health.Reason
			}
			return false, reason, nil
		}
		return false, "", err
	}
	return true, "", nil
}

// Trace fetches the last n engine transitions from the server's event
// trace (0 = all buffered). Idempotent: retried on network failures.
func (c *Client) Trace(n int) ([]TraceEvent, error) {
	resp, err := c.call(Request{Op: "trace", N: n}, true)
	if err != nil {
		return nil, err
	}
	return resp.Trace, nil
}

// Metrics fetches the server's lifetime engine metrics. Idempotent:
// retried on network failures.
func (c *Client) Metrics() (EngineMetrics, error) {
	resp, err := c.call(Request{Op: "metrics"}, true)
	if err != nil {
		return EngineMetrics{}, err
	}
	if resp.Metrics == nil {
		return EngineMetrics{}, fmt.Errorf("rms: metrics: empty response")
	}
	return *resp.Metrics, nil
}

// Policies fetches the server's registered policy names and family
// templates. Idempotent: retried on network failures.
func (c *Client) Policies() ([]string, error) {
	resp, err := c.call(Request{Op: "policies"}, true)
	if err != nil {
		return nil, err
	}
	return resp.Policies, nil
}

// Deciders fetches the server's registered decider names and family
// templates. Idempotent: retried on network failures.
func (c *Client) Deciders() ([]string, error) {
	resp, err := c.call(Request{Op: "deciders"}, true)
	if err != nil {
		return nil, err
	}
	return resp.Deciders, nil
}
