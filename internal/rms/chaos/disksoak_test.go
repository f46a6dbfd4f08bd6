package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"dynp/internal/job"
	"dynp/internal/rms"
)

// TestDiskFaultRecoverySoak exercises the full crash-recovery promise
// against a real dynpd process: cycles of load through the TCP protocol
// with seeded disk faults (failed and torn writes, failed syncs) eating
// at the journal underneath, each ended by kill -9 mid-history and a
// restart on the same journal. After every restart the restored state
// and lifetime metrics must be byte-identical to the pre-kill capture
// (modulo wall-clock planning times), the restarted trace ring must be a
// suffix of the pre-kill one, numbered the same, and at the end no
// acknowledged job may be lost and no job may finish twice. The fault schedule is seeded, so a failure
// reproduces. Bit flips are deliberately excluded: a flipped byte that
// the write syscall accepted is silent interior corruption, which the
// journal detects and refuses on restart rather than recovers from.
func TestDiskFaultRecoverySoak(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skipf("go toolchain not on PATH: %v", err)
	}
	dir := t.TempDir()
	bin := buildDynpd(t, dir)

	const cycles = 4
	accepted := make(map[job.ID]rms.JobInfo) // every acked submission, all cycles
	now := int64(0)

	// First start is fault-free so the genesis header lands durably; every
	// later restart runs with injected faults (replay reads are clean, so
	// recovery itself is deterministic).
	d := startDynpd(t, bin, dir, 0)
	for cycle := 0; cycle < cycles; cycle++ {
		c := dialReady(t, d)
		now = loadBurst(t, c, cycle, now, accepted)

		// Quiesce: no mutations in flight, so everything acknowledged is
		// journaled. Capture, kill -9, restart, and the restored state
		// must match byte for byte.
		pre, preRing := capture(t, c)
		c.Close()
		d.kill(t)
		d = startDynpd(t, bin, dir, 1000+cycle*101)
		c2 := dialReady(t, d)
		post, postRing := capture(t, c2)
		if pre != post {
			t.Errorf("cycle %d: state diverged across kill -9\npre:  %s\npost: %s", cycle, pre, post)
		}
		// The ring is no state: the restarted one holds the transitions
		// replayed since the newest checkpoint, the pre-kill ring's last.
		if k := len(preRing) - len(postRing); k < 0 || !reflect.DeepEqual(postRing, preRing[k:]) {
			t.Errorf("cycle %d: the restarted trace ring is no suffix of the pre-kill one\npre:  %+v\npost: %+v", cycle, preRing, postRing)
		}
		c2.Close()
	}

	// Final phase: restart without faults so the drain cannot trip the
	// sticky journal, run the clock until the machine empties, and audit
	// the books.
	d.kill(t)
	d = startDynpd(t, bin, dir, 0)
	defer d.kill(t)
	c := dialReady(t, d)
	defer c.Close()
	for i := 0; i < 1000; i++ {
		st, err := c.Status()
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Waiting) == 0 && len(st.Running) == 0 {
			break
		}
		now += 50
		if _, err := c.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Waiting) != 0 || len(st.Running) != 0 {
		t.Fatalf("machine did not drain: %d waiting, %d running", len(st.Waiting), len(st.Running))
	}

	fin, err := c.Finished()
	if err != nil {
		t.Fatal(err)
	}
	finCount := make(map[job.ID]int)
	for _, j := range fin {
		finCount[j.ID]++
		if j.State != rms.StateCompleted && j.State != rms.StateKilled && j.State != rms.StateFailed {
			t.Errorf("finished job %d in state %s", j.ID, j.State)
		}
	}
	for id, n := range finCount {
		if n > 1 {
			t.Errorf("job %d finished %d times across restarts", id, n)
		}
	}
	lost := 0
	for id := range accepted {
		if finCount[id] == 0 {
			lost++
			t.Errorf("job %d acknowledged but lost across kill -9", id)
		}
	}
	if len(accepted) == 0 {
		t.Fatal("no submissions survived the disk faults; rates too high for a meaningful soak")
	}
	t.Logf("disk soak: %d acknowledged submissions, %d finished jobs, %d lost, t=%d",
		len(accepted), len(finCount), lost, now)
}

// buildDynpd compiles the daemon once into the soak's temp dir.
func buildDynpd(t *testing.T, dir string) string {
	t.Helper()
	bin := filepath.Join(dir, "dynpd")
	cmd := exec.Command("go", "build", "-o", bin, "dynp/cmd/dynpd")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build dynpd: %v\n%s", err, out)
	}
	return bin
}

type dynpdProc struct {
	cmd    *exec.Cmd
	stderr *bytes.Buffer
	exited chan error
	addr   string
}

// startDynpd launches the daemon on the shared journal and waits for it
// to bind. faultSeed 0 runs clean; otherwise the journal sits on the
// fault-injecting filesystem. A daemon that dies during startup (an
// injected fault can fail the open-time sync) is retried on a shifted
// seed — the journal on disk stays authoritative either way.
func startDynpd(t *testing.T, bin, dir string, faultSeed int) *dynpdProc {
	t.Helper()
	for attempt := 0; attempt < 5; attempt++ {
		addrFile := filepath.Join(dir, "addr")
		os.Remove(addrFile)
		args := []string{
			"-addr", "127.0.0.1:0",
			"-addr-file", addrFile,
			"-journal", filepath.Join(dir, "journal"),
			"-journal-checkpoint", "16",
			"-procs", "16",
			"-max-conns", "8",
			"-write-timeout", "5s",
			"-trace", "128",
		}
		if faultSeed > 0 {
			args = append(args, "-disk-fault", fmt.Sprintf(
				"seed=%d,writefail=0.01,short=0.01,bitflip=0,syncfail=0.005,rename=0", faultSeed+attempt))
		}
		d := &dynpdProc{cmd: exec.Command(bin, args...), stderr: &bytes.Buffer{}, exited: make(chan error, 1)}
		d.cmd.Stderr = d.stderr
		if err := d.cmd.Start(); err != nil {
			t.Fatal(err)
		}
		go func() { d.exited <- d.cmd.Wait() }()

		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
				d.addr = strings.TrimSpace(string(b))
				return d
			}
			select {
			case <-d.exited:
				goto retry
			case <-time.After(5 * time.Millisecond):
			}
		}
		t.Fatalf("dynpd did not bind within 10s\nstderr:\n%s", d.stderr)
	retry:
		t.Logf("dynpd startup attempt %d died (injected fault?): %s", attempt, d.stderr)
	}
	t.Fatal("dynpd failed to start after 5 attempts")
	return nil
}

func (d *dynpdProc) kill(t *testing.T) {
	t.Helper()
	if d.cmd.Process == nil {
		return
	}
	d.cmd.Process.Signal(syscall.SIGKILL)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		t.Fatal("dynpd did not exit after SIGKILL")
	}
}

// dialReady connects and blocks until the daemon reports ready (replay
// complete), so captures never race recovery.
func dialReady(t *testing.T, d *dynpdProc) *rms.Client {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		c, err := rms.DialOptions(d.addr, rms.ClientOptions{
			Timeout: 2 * time.Second,
			Retries: 3,
			Backoff: time.Millisecond,
		})
		if err == nil {
			if ok, _, rerr := c.Ready(); rerr == nil && ok {
				return c
			}
			c.Close()
		}
		if time.Now().After(deadline) {
			t.Fatalf("dynpd not ready within 10s (last err %v)\nstderr:\n%s", err, d.stderr)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// loadBurst pushes a deterministic mix of submissions, clock moves and
// completions through the protocol. Once an injected fault turns the
// journal sticky, mutations fail — those jobs were never acknowledged
// and are not counted. Everything acknowledged is in the journal.
func loadBurst(t *testing.T, c *rms.Client, cycle int, now int64, accepted map[job.ID]rms.JobInfo) int64 {
	t.Helper()
	for i := 0; i < 20; i++ {
		width := 1 + (cycle*5+i)%6
		est := int64(20 + (i*13)%80)
		if info, err := c.Submit(width, est); err == nil {
			accepted[info.ID] = info
		}
		if i%3 == 2 {
			now += 7
			c.Tick(now) // fails once the journal is sticky; the clock just stays put
		}
		if i%5 == 4 {
			if st, err := c.Status(); err == nil && len(st.Running) > 0 {
				c.Done(st.Running[0].ID)
			}
		}
	}
	return now
}

// capture fingerprints the state the daemon can tell a client — status,
// report, finished jobs and lifetime metrics — with the wall-clock
// planning latencies zeroed, and returns the engine trace's ring with
// them zeroed too.
func capture(t *testing.T, c *rms.Client) (string, []rms.TraceEvent) {
	t.Helper()
	st, err := c.Status()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Report()
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.Finished()
	if err != nil {
		t.Fatal(err)
	}
	m, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	m.PlanNsTotal, m.PlanNsMax = 0, 0
	tr, err := c.Trace(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr {
		tr[i].PlanNs = 0
	}
	b, err := json.Marshal(struct {
		Status   rms.Status
		Report   rms.Report
		Finished []rms.JobInfo
		Metrics  rms.EngineMetrics
	}{st, rep, fin, m})
	if err != nil {
		t.Fatal(err)
	}
	return string(b), tr
}
