package rms

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"dynp/internal/job"
	"dynp/internal/plan/plantest"
	"dynp/internal/policy"
)

// A tieStep is one daemon op and what it must do: the transitions it
// emits, in plantest.Transition's String form and joined by ", ", and the
// facts the scheduler reads right after it, joined by "; ". Ops:
//
//	submit W E | complete ID | cancel ID | fail N | restore N | advance T
//	deliver T [done ID...] [sub WxE...] | quote W E COUNT
//
// Facts: "job ID waiting at T", "job ID waiting never", "job ID running
// since T", "job ID <completed|killed|failed> at T", "procs F failed U
// used", and "quote S..." for the quote the step asked for.
type tieStep struct{ op, log, want string }

// tieRules pins each tie rule of DESIGN §9 but rule 2 (which
// sim.TestInstantDispatchOrder pins) by exactly one hand-written script,
// on a static driver.
var tieRules = []struct {
	rule     int
	capacity int
	policy   policy.Policy
	steps    []tieStep
}{
	// Rule 1: a job wider than the processors up is withheld — queued, no
	// entry (NeverStart) — and does not hold back a narrower later job;
	// the entries due start in entry order, then the plan event; with no
	// processor up there is no plan, and the plan event fires all the same.
	{1, 8, policy.FCFS, []tieStep{
		{"fail 8", "procs-fail 0@0 q0, plan 0@0 q0", "procs 8 failed 0 used"},
		{"submit 1 10", "submit 1@0 q1, plan 0@0 q1", "job 1 waiting never"},
		{"advance 1000", "", "job 1 waiting never"},
		{"restore 2", "procs-restore 0@1000 q1, start 1@1000 q0, plan 0@1000 q0", ""},
		{"deliver 1000 sub 4x10 2x10 1x10",
			"submit 2@1000 q1, submit 3@1000 q2, submit 4@1000 q3, start 4@1000 q2, plan 0@1000 q2",
			"job 2 waiting never; job 3 waiting at 1010; job 4 running since 1000"},
		{"restore 6", "procs-restore 0@1000 q2, start 2@1000 q1, start 3@1000 q0, plan 0@1000 q0",
			"procs 0 failed 8 used"},
	}},
	// Rule 3: the machine acts on its own at each instant an estimate runs
	// out: the expired jobs are killed in start order (SAF started job 2
	// before job 1), then a scheduling event, which starts the job
	// planned then.
	{3, 4, policy.SAF, []tieStep{
		{"deliver 0 sub 2x10 1x10 4x5",
			"submit 1@0 q1, submit 2@0 q2, submit 3@0 q3, start 2@0 q2, start 1@0 q1, plan 0@0 q1",
			"job 3 waiting at 10"},
		{"advance 100", "kill 2@10 q1, kill 1@10 q1, start 3@10 q0, plan 0@10 q0, kill 3@15 q0, plan 0@15 q0",
			"job 1 killed at 10; job 3 killed at 15"},
	}},
	// Rule 4: a Deliver batch at 50 lets job 1 expire at 20 first; at 50
	// its completions end in the order given (job 2 at its estimate is
	// completed, not killed), then job 4, expired, is killed, then the
	// submissions queue under the next IDs, then one scheduling event
	// starts job 5 on all the processors freed.
	{4, 4, policy.FCFS, []tieStep{
		{"deliver 0 sub 1x20 1x50 1x50 1x50",
			"submit 1@0 q1, submit 2@0 q2, submit 3@0 q3, submit 4@0 q4, " +
				"start 1@0 q3, start 2@0 q2, start 3@0 q1, start 4@0 q0, plan 0@0 q0", ""},
		{"deliver 50 done 3 2 sub 4x30 1x10",
			"kill 1@20 q0, plan 0@20 q0, finish 3@50 q0, finish 2@50 q0, kill 4@50 q0, " +
				"submit 5@50 q1, submit 6@50 q2, start 5@50 q1, plan 0@50 q1",
			"job 2 completed at 50; job 4 killed at 50; job 5 running since 50; job 6 waiting at 80"},
	}},
	// Rule 5: each interactive entry point is one change, then one
	// scheduling event; the daemon's own first plan is never observed; an
	// advance acts up to and including its instant and plans nothing of
	// its own.
	{5, 4, policy.FCFS, []tieStep{
		{"submit 4 100", "submit 1@0 q1, start 1@0 q0, plan 0@0 q0", ""},
		{"submit 4 50", "submit 2@0 q1, plan 0@0 q1", "job 2 waiting at 100"},
		{"submit 2 10", "submit 3@0 q2, plan 0@0 q2", "job 3 waiting at 150"},
		{"advance 30", "", ""},
		{"complete 1", "finish 1@30 q2, start 2@30 q1, plan 0@30 q1",
			"job 1 completed at 30; job 2 running since 30; job 3 waiting at 80"},
		{"cancel 3", "cancel 3@30 q0, plan 0@30 q0", ""},
		{"advance 80", "kill 2@80 q0, plan 0@80 q0", ""},
		{"fail 1", "procs-fail 0@80 q0, plan 0@80 q0", "procs 1 failed 0 used"},
		{"restore 1", "procs-restore 0@80 q0, plan 0@80 q0", "procs 0 failed 0 used"},
	}},
	// Rule 6: a failure kills the job started last, of those the highest
	// ID, until the rest fit; jobs that still fit survive it.
	{6, 8, policy.FCFS, []tieStep{
		{"submit 2 100", "submit 1@0 q1, start 1@0 q0, plan 0@0 q0", ""},
		{"advance 10", "", ""},
		{"deliver 10 sub 2x100 2x100", "submit 2@10 q1, submit 3@10 q2, start 2@10 q1, start 3@10 q0, plan 0@10 q0", ""},
		{"fail 2", "procs-fail 0@10 q0, plan 0@10 q0", "procs 2 failed 6 used"},
		{"fail 2", "procs-fail 0@10 q0, job-fail 3@10 q0, plan 0@10 q0",
			"job 3 failed at 10; job 2 running since 10; procs 4 failed 4 used"},
		{"fail 2", "procs-fail 0@10 q0, job-fail 2@10 q0, plan 0@10 q0", "job 1 running since 0"},
		{"fail 2", "procs-fail 0@10 q0, job-fail 1@10 q0, plan 0@10 q0", "job 1 failed at 10; procs 8 failed 0 used"},
	}},
	// Rule 7: the hypothetical jobs take the next IDs, so FCFS places them
	// behind job 2, submitted at the same instant; each is planned in
	// turn, and the copy runs until all of them started, through job 1's
	// kill at 100. A job wider than the processors up never starts.
	{7, 4, policy.FCFS, []tieStep{
		{"submit 4 100", "submit 1@0 q1, start 1@0 q0, plan 0@0 q0", ""},
		{"submit 2 50", "submit 2@0 q1, plan 0@0 q1", "job 2 waiting at 100"},
		{"quote 2 30 3", "", "quote 100 130 150"},
		{"fail 2", "procs-fail 0@0 q1, job-fail 1@0 q1, start 2@0 q0, plan 0@0 q0", ""},
		{"quote 2 10 2", "", "quote 50 60"},
		{"quote 4 10 1", "", "quote never"},
	}},
}

// TestTieRules runs every script through the stream interpreter, which
// holds the scheduler to the naive daemon (plantest.Daemon) — the same
// transitions, live jobs, quotes and finished jobs — and to its
// invariants, and restarts it and replays its journal at the end; after
// every op the scheduler must also have emitted the step's transitions
// and read the step's facts.
func TestTieRules(t *testing.T) {
	var rules []int
	for _, row := range tieRules {
		rules = append(rules, row.rule)
		t.Run(fmt.Sprintf("rule%d", row.rule), func(t *testing.T) {
			var ops []streamOp
			for _, st := range row.steps {
				ops = append(ops, tieOp(st.op))
			}
			ds := staticStream(t, row.capacity, row.policy)
			k := 0
			ds.after = func(s *Scheduler, log []plantest.Transition, quoted []Quote) {
				st := row.steps[k]
				if k++; plantest.Log(log) != st.log {
					t.Fatalf("%s: transitions\n got %s\nwant %s", st.op, plantest.Log(log), st.log)
				}
				for _, want := range strings.Split(st.want, "; ") {
					if got := tieFact(t, s, quoted, want); got != want {
						t.Errorf("%s: reads %q, want %q", st.op, got, want)
					}
				}
			}
			runDeliverLockstep(t, ds, ops)
		})
	}
	if !slices.Equal(rules, []int{1, 3, 4, 5, 6, 7}) {
		t.Errorf("rows pin rules %v; each of 1 and 3 to 7 needs exactly one", rules)
	}
}

// tieOp reads one op of a script as the request it makes.
func tieOp(op string) streamOp {
	f := strings.Fields(op)
	var n []int64 // the numbers after the op's name, up to a deliver's lists
	req := Request{Op: map[string]string{"complete": "done", "advance": "tick"}[f[0]]}
	if req.Op == "" {
		req.Op = f[0]
	}
	list := ""
	for _, w := range f[1:] {
		a, b, shape := strings.Cut(w, "x")
		x, _ := strconv.ParseInt(a, 10, 64)
		y, _ := strconv.ParseInt(b, 10, 64)
		switch {
		case w == "done" || w == "sub":
			list = w
		case shape:
			req.Subs = append(req.Subs, Submission{Width: int(x), Estimate: y})
		case list == "done":
			req.Completions = append(req.Completions, x)
		default:
			n = append(n, x)
		}
	}
	switch n = append(n, 0, 0, 0); req.Op {
	case "submit", "quote":
		req.Width, req.Estimate, req.Count = int(n[0]), n[1], int(n[2])
	case "done", "cancel":
		req.ID = n[0]
	case "fail", "restore":
		req.Procs = int(n[0])
	case "tick", "deliver":
		req.To = n[0]
	}
	return streamOp{Request: req}
}

// tieFact reads what the scheduler holds about want's subject, in want's
// form.
func tieFact(t *testing.T, s *Scheduler, quoted []Quote, want string) string {
	t.Helper()
	f := strings.Fields(want)
	switch {
	case len(f) == 0:
		return want
	case f[0] == "procs":
		st := s.Status()
		return fmt.Sprintf("procs %d failed %d used", st.FailedProcs, st.UsedProcs)
	case f[0] == "quote":
		out := "quote"
		for _, q := range quoted {
			if q.Start == NeverStart {
				out += " never"
			} else {
				out += fmt.Sprintf(" %d", q.Start)
			}
		}
		return out
	}
	id, _ := strconv.ParseInt(f[1], 10, 64)
	info, err := s.Job(job.ID(id))
	if err != nil {
		t.Fatal(err)
	}
	switch {
	case info.State == StateWaiting && info.PlannedStart == NeverStart:
		return fmt.Sprintf("job %d waiting never", id)
	case info.State == StateWaiting:
		return fmt.Sprintf("job %d waiting at %d", id, info.PlannedStart)
	case info.State == StateRunning:
		return fmt.Sprintf("job %d running since %d", id, info.Started)
	}
	return fmt.Sprintf("job %d %v at %d", id, info.State, info.Finished)
}
