package rms

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dynp/internal/job"
)

// fastOptions keeps retry/backoff delays test-sized.
func fastOptions() ClientOptions {
	return ClientOptions{
		Timeout:    2 * time.Second,
		Retries:    5,
		Backoff:    time.Millisecond,
		MaxBackoff: 4 * time.Millisecond,
	}
}

func TestClientReconnectsIdempotentCall(t *testing.T) {
	_, addr := startServer(t)
	c, err := DialOptions(addr, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Submit(2, 100); err != nil {
		t.Fatal(err)
	}
	// Kill the connection out from under the client; the idempotent call
	// must reconnect and retry by itself.
	c.conn.Close()
	st, err := c.Status()
	if err != nil {
		t.Fatalf("status after severed connection: %v", err)
	}
	if len(st.Running) != 1 {
		t.Fatalf("status = %+v", st)
	}
}

func TestClientMutatingCallNotRetriedButReconnectsNextCall(t *testing.T) {
	_, addr := startServer(t)
	c, err := DialOptions(addr, fastOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Poison the connection so the write (or the read of the response)
	// fails. The mutating call must NOT be silently retried — its outcome
	// is unknown — so it surfaces an error...
	c.conn.Close()
	if _, err := c.Submit(2, 100); err == nil {
		t.Fatal("submit on a severed connection reported success")
	}
	// ...and the next call starts from a fresh connection.
	if _, err := c.Submit(2, 100); err != nil {
		t.Fatalf("submit after reconnect: %v", err)
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Running) != 1 {
		t.Fatalf("status = %+v, want exactly the second submit's job", st)
	}
}

func TestClientRetriesThroughFlakyDialer(t *testing.T) {
	_, addr := startServer(t)
	fails := 2
	dials := 0
	opts := fastOptions()
	opts.Dialer = func() (net.Conn, error) {
		dials++
		if fails > 0 {
			fails--
			return nil, fmt.Errorf("flaky: dial refused")
		}
		return net.Dial("tcp", addr)
	}
	// The initial dial is eager and surfaces failures immediately.
	if _, err := DialOptions("", opts); err == nil {
		t.Fatal("initial dial is eager and must surface the first failure")
	}
	if _, err := DialOptions("", opts); err == nil {
		t.Fatal("second eager dial should also fail")
	}
	c, err := DialOptions("", opts)
	if err != nil {
		t.Fatalf("third dial should succeed: %v", err)
	}
	defer c.Close()
	// Sever and make the dialer flaky again: the idempotent retry loop
	// must work through the failed reconnects.
	fails = 2
	c.conn.Close()
	if _, err := c.Status(); err != nil {
		t.Fatalf("status through flaky reconnects: %v", err)
	}
	if dials < 6 {
		t.Fatalf("dials = %d, expected the retry loop to keep dialing", dials)
	}
}

// stubServer accepts any number of connections and answers request n —
// counted from 0 across all of them — by calling respond with n and the
// connection to write the response to. It returns the address and a
// counter of accepted connections.
func stubServer(t *testing.T, respond func(n int, conn net.Conn)) (string, *atomic.Int64) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var conns, requests atomic.Int64
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			conns.Add(1)
			go func() {
				defer conn.Close()
				sc := bufio.NewScanner(conn)
				for sc.Scan() {
					respond(int(requests.Add(1)-1), conn)
				}
			}()
		}
	}()
	return l.Addr().String(), &conns
}

// malformedServer answers every request line with a fixed raw response.
func malformedServer(t *testing.T, raw string) string {
	t.Helper()
	addr, _ := stubServer(t, func(_ int, conn net.Conn) { fmt.Fprintf(conn, "%s\n", raw) })
	return addr
}

// TestClientDecodesOffTheSocket: the client decodes a response however
// the bytes arrive — one per write, or far beyond the server's 64 KiB
// request-line limit — and a malformed response fails only its own call:
// the next one reconnects and succeeds.
func TestClientDecodesOffTheSocket(t *testing.T) {
	opts := fastOptions()
	opts.Retries = -1

	t.Run("one byte per write", func(t *testing.T) {
		want := Status{Now: 7, Capacity: 8, Scheduler: "FCFS",
			Waiting: []JobInfo{{ID: 2, Width: 4, Estimate: 50, PlannedStart: 100}},
			Running: []JobInfo{{ID: 1, Width: 8, Estimate: 100, State: StateRunning}}}
		line, err := json.Marshal(Response{OK: true, Status: &want, Now: 7})
		if err != nil {
			t.Fatal(err)
		}
		addr, _ := stubServer(t, func(_ int, conn net.Conn) {
			for _, b := range append(line, '\n') {
				if _, err := conn.Write([]byte{b}); err != nil {
					return
				}
			}
		})
		c, err := DialOptions(addr, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		for i := 0; i < 2; i++ {
			got, err := c.Status()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("status %+v, want %+v", got, want)
			}
		}
	})

	t.Run("finished over 64 KiB", func(t *testing.T) {
		want := make([]JobInfo, 2000)
		for i := range want {
			want[i] = JobInfo{ID: job.ID(i + 1), Width: 1 + i%64, Estimate: 3600, Submitted: int64(i),
				State: StateCompleted, Started: int64(i) + 10, Finished: int64(i) + 900}
		}
		line, err := json.Marshal(Response{OK: true, Finished: want})
		if err != nil {
			t.Fatal(err)
		}
		if len(line) <= 1<<16 {
			t.Fatalf("response is only %d bytes", len(line))
		}
		addr, _ := stubServer(t, func(_ int, conn net.Conn) { conn.Write(append(line, '\n')) })
		c, err := DialOptions(addr, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		got, err := c.Finished()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("finished list of %d jobs came back as %d, or changed", len(want), len(got))
		}
	})

	t.Run("malformed then valid", func(t *testing.T) {
		addr, conns := stubServer(t, func(n int, conn net.Conn) {
			if n == 0 {
				fmt.Fprintf(conn, "%s\n", `{"ok":true,"now":x}`)
				return
			}
			fmt.Fprintf(conn, "%s\n", `{"ok":true,"job":{"ID":3},"now":5}`)
		})
		c, err := DialOptions(addr, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.Job(3); err == nil {
			t.Fatal("malformed response accepted")
		}
		info, err := c.Job(3)
		if err != nil || info.ID != 3 {
			t.Fatalf("call after a malformed response: %+v, %v", info, err)
		}
		if n := conns.Load(); n != 2 {
			t.Fatalf("%d connections, want the poisoned one dropped and one reconnect", n)
		}
	})
}

func TestClientSurvivesMalformedResponses(t *testing.T) {
	// {"ok":true} with no payload used to nil-deref in Done and Job.
	addr := malformedServer(t, `{"ok":true}`)
	opts := fastOptions()
	opts.Retries = 0
	c, err := DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	checks := []struct {
		name string
		call func() error
	}{
		{"submit", func() error { _, err := c.Submit(1, 10); return err }},
		{"done", func() error { _, err := c.Done(1); return err }},
		{"job", func() error { _, err := c.Job(1); return err }},
		{"status", func() error { _, err := c.Status(); return err }},
		{"report", func() error { _, err := c.Report(); return err }},
		{"fail", func() error { _, err := c.Fail(1); return err }},
		{"restore", func() error { _, err := c.Restore(1); return err }},
	}
	for _, ck := range checks {
		if err := ck.call(); err == nil {
			t.Errorf("%s: accepted a payload-free response", ck.name)
		} else if !strings.Contains(err.Error(), "empty response") {
			t.Errorf("%s: error %q does not name the empty response", ck.name, err)
		}
	}
	// Garbage that is not JSON at all errors too (decode path).
	addr = malformedServer(t, `not json`)
	c2, err := DialOptions(addr, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if _, err := c2.Status(); err == nil {
		t.Error("non-JSON response accepted")
	}
}

func TestClientPerCallTimeout(t *testing.T) {
	// A server that accepts but never replies: the per-call deadline must
	// bound each attempt instead of hanging forever.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(io.Discard, conn) }() // read, never reply
		}
	}()
	opts := fastOptions()
	opts.Timeout = 30 * time.Millisecond
	opts.Retries = 1
	c, err := DialOptions(l.Addr().String(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	start := time.Now()
	if _, err := c.Status(); err == nil {
		t.Fatal("status against a mute server succeeded")
	}
	if e := time.Since(start); e > 2*time.Second {
		t.Fatalf("timeout did not bound the call: took %v", e)
	}
	// Non-idempotent: exactly one attempt, also bounded.
	start = time.Now()
	if _, err := c.Tick(10); err == nil {
		t.Fatal("tick against a mute server succeeded")
	}
	if e := time.Since(start); e > time.Second {
		t.Fatalf("single-attempt timeout took %v", e)
	}
}

func TestBackoffDeterministicAndBounded(t *testing.T) {
	// Only the options and the jitter stream matter for backoffDelay;
	// build the clients by hand.
	opts := ClientOptions{Backoff: 10 * time.Millisecond, MaxBackoff: 80 * time.Millisecond}.withDefaults()
	a := &Client{opts: opts, jitter: newClientJitter(7)}
	b := &Client{opts: opts, jitter: newClientJitter(7)}
	for i := 0; i < 8; i++ {
		da, db := a.backoffDelay(i), b.backoffDelay(i)
		if da != db {
			t.Fatalf("attempt %d: %v vs %v — jitter not seeded", i, da, db)
		}
		base := 10 * time.Millisecond << uint(i)
		if base > 80*time.Millisecond {
			base = 80 * time.Millisecond
		}
		if da < base/2 || da > base {
			t.Fatalf("attempt %d: delay %v outside [%v, %v]", i, da, base/2, base)
		}
	}
	// Different seeds diverge (eventually).
	cOther := &Client{opts: a.opts, jitter: newClientJitter(8)}
	same := true
	for i := 0; i < 8; i++ {
		if a.backoffDelay(i) != cOther.backoffDelay(i) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter")
	}
}

func TestClientFailRestore(t *testing.T) {
	_, addr := startServer(t)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Fail(3)
	if err != nil {
		t.Fatal(err)
	}
	if st.FailedProcs != 3 {
		t.Fatalf("status after fail = %+v", st)
	}
	if _, err := c.Fail(99); err == nil {
		t.Error("failing 99 of 8 processors accepted")
	}
	st, err = c.Restore(3)
	if err != nil {
		t.Fatal(err)
	}
	if st.FailedProcs != 0 {
		t.Fatalf("status after restore = %+v", st)
	}
	if _, err := c.Restore(1); err == nil {
		t.Error("restore with nothing failed accepted")
	}
}

func TestResponseNowAlwaysMarshals(t *testing.T) {
	// "now":0 is a real clock reading; omitempty would hide it and make
	// clients misparse t=0 as "no clock".
	b, err := json.Marshal(Response{OK: true})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte(`"now":0`)) {
		t.Fatalf("marshaled response %s lacks \"now\":0", b)
	}
}

func TestServeConnOversizedLineGetsErrorResponse(t *testing.T) {
	sched := newFCFS(t, 8)
	sv := NewServer(sched, true)
	big := strings.Repeat("x", 1<<17) // twice the 64 KiB cap, one line
	var out bytes.Buffer
	rw := struct {
		io.Reader
		io.Writer
	}{strings.NewReader(big), &out}
	err := sv.ServeConn(rw)
	if err == nil {
		t.Fatal("oversized line did not error")
	}
	var resp Response
	if jerr := json.Unmarshal(out.Bytes(), &resp); jerr != nil {
		t.Fatalf("no parseable error response before close: %v (wrote %q)", jerr, out.String())
	}
	if resp.OK || !strings.Contains(resp.Error, "64 KiB") {
		t.Fatalf("response = %+v, want explicit line-limit error", resp)
	}
}

func TestHandleFailRestore(t *testing.T) {
	sched := newFCFS(t, 8)
	sv := NewServer(sched, true)
	resp := sv.Handle(Request{Op: "fail", Procs: 2})
	if !resp.OK || resp.Status == nil || resp.Status.FailedProcs != 2 {
		t.Fatalf("fail response = %+v", resp)
	}
	if resp = sv.Handle(Request{Op: "fail", Procs: 100}); resp.OK {
		t.Fatalf("fail 100 accepted: %+v", resp)
	}
	resp = sv.Handle(Request{Op: "restore", Procs: 2})
	if !resp.OK || resp.Status == nil || resp.Status.FailedProcs != 0 {
		t.Fatalf("restore response = %+v", resp)
	}
	if resp = sv.Handle(Request{Op: "restore", Procs: 1}); resp.OK {
		t.Fatalf("restore with nothing failed accepted: %+v", resp)
	}
}

func TestServerIdleTimeoutDropsConnection(t *testing.T) {
	sched := newFCFS(t, 8)
	sv := NewServer(sched, true)
	sv.IdleTimeout = 50 * time.Millisecond
	addr, err := sv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sv.Close()
	conn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Say nothing; the server must hang up on its own.
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("idle connection was not dropped")
	}
}

func TestServerDrainFinishesInFlightRequest(t *testing.T) {
	_, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, `{"op":"status"}`+"\n")
	sc := bufio.NewScanner(conn)
	if !sc.Scan() {
		t.Fatalf("no response before drain: %v", sc.Err())
	}
	var resp Response
	if err := json.Unmarshal(sc.Bytes(), &resp); err != nil || !resp.OK {
		t.Fatalf("bad response %q (%v)", sc.Text(), err)
	}
}
