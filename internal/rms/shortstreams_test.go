package rms

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dynp/internal/core"
	"dynp/internal/policy"
)

// The enumeration runs on smallCapacity processors holding at most
// smallJobs live jobs, over streams of up to shortDepth ops.
const smallCapacity, smallJobs, shortDepth = 3, 2, 4

// smallOps is the enumeration's alphabet: submit a job of each width and
// estimate in {1, 2, 3}, and one wider than the machine, which is
// refused; complete or cancel each job; advance by 1 to 3; fail or
// restore one processor; deliver batches of up to two entries,
// completions of the first two running jobs and submissions, now or 2
// later (a batch's second entry is a job of one of three shapes, longer
// as it is narrower); and quote two jobs of those shapes. Each op
// with an interactive entry point goes through Deliver too: a submission
// and an advance as batches of their own, a completion as a batch now.
var smallOps = func() []streamOp {
	op := func(req Request, by int64, picks ...int) streamOp { return streamOp{req, by, picks} }
	pair := []Submission{{Width: 1, Estimate: 3}, {Width: 2, Estimate: 2}, {Width: 3, Estimate: 1}}
	var ops []streamOp
	for w := 1; w <= smallCapacity+1; w++ {
		for e := int64(1); e <= 3 && (w <= smallCapacity || e == 1); e++ {
			ops = append(ops, op(Request{Op: "submit", Width: w, Estimate: e}, 0),
				op(Request{Op: "deliver", Subs: []Submission{{Width: w, Estimate: e}}}, 0))
		}
	}
	for _, sh := range pair {
		ops = append(ops, op(Request{Op: "quote", Width: sh.Width, Estimate: sh.Estimate, Count: 2}, 0))
	}
	for k := 0; k < smallJobs; k++ {
		ops = append(ops, op(Request{Op: "done"}, 0, k), op(Request{Op: "cancel"}, 0, k))
	}
	ops = append(ops, op(Request{Op: "fail"}, 0, 0), op(Request{Op: "restore"}, 0, 0))
	for by := int64(0); by <= 3; by++ {
		if ops = append(ops, op(Request{Op: "deliver"}, by)); by > 0 {
			ops = append(ops, op(Request{Op: "tick"}, by))
		}
		for k := 0; k < 2 && by%2 == 0; k++ {
			ops = append(ops, op(Request{Op: "deliver"}, by, k), op(Request{Op: "deliver"}, by, k, 1-k))
			for _, sh := range pair {
				ops = append(ops, op(Request{Op: "deliver", Subs: []Submission{sh}}, by, k))
			}
		}
	}
	for _, a := range pair {
		for _, b := range pair {
			ops = append(ops, op(Request{Op: "deliver", Subs: []Submission{a, b}}, 0))
		}
	}
	return ops
}()

// acts reports whether the enumeration runs op in state st: every pick
// names a job (a batch's, one still running at its instant), a fail has
// a processor to fail and a restore one to restore, the clock moves with
// nothing running only by a tick of 3, and the machine never holds more
// than smallJobs jobs but at a batch's instant, where the jobs it
// completes and those it submits meet. Any other op is not sent, or is
// one of these under another name.
func acts(op streamOp, st Status) bool {
	live := len(st.Waiting) + len(st.Running)
	if op.Op != "quote" && live+len(op.Subs)+min(op.Width, 1)-len(op.picks) > smallJobs ||
		op.by > 0 && len(st.Running) == 0 && (op.Op != "tick" || op.by != 3) {
		return false
	}
	switch op.Op {
	case "done":
		return op.picks[0] < len(st.Running)
	case "cancel":
		return op.picks[0] < len(st.Waiting)
	case "fail":
		return st.FailedProcs < st.Capacity
	case "restore":
		return st.FailedProcs > 0
	case "deliver":
		for _, p := range op.picks {
			if p >= len(st.Running) {
				return false
			}
		}
		return len(batchDone(st, op.picks, st.Now+op.by)) == len(op.picks)
	}
	return true
}

// canonical is a daemon state up to when it is and what its jobs are
// called: instants relative to now, and the live jobs, unnamed, in ID
// order.
func canonical(st Status) string {
	jobs := append(slices.Clone(st.Waiting), st.Running...)
	slices.SortFunc(jobs, func(a, b JobInfo) int { return cmp.Compare(a.ID, b.ID) })
	var key strings.Builder
	fmt.Fprintf(&key, "%d %s", st.FailedProcs, st.ActivePolicy)
	for _, j := range jobs {
		switch {
		case j.State == StateRunning:
			fmt.Fprintf(&key, "|run %dx%d %d", j.Width, j.Estimate, j.Started-st.Now)
		case j.PlannedStart == NeverStart:
			fmt.Fprintf(&key, "|wait %dx%d %d never", j.Width, j.Estimate, j.Submitted-st.Now)
		default:
			fmt.Fprintf(&key, "|wait %dx%d %d %d", j.Width, j.Estimate, j.Submitted-st.Now, j.PlannedStart-st.Now)
		}
	}
	return key.String()
}

// enumerate runs every stream of up to depth ops of smallOps through the
// stream interpreter, breadth first, extending only the streams that end
// in a state no shorter or earlier stream ended in, and beyond depth ops
// only those that leave no processor up, by a quote, a restore and a
// tick, so that a machine drained on the last op is quoted and gets a
// processor back, before or after its clock moves. So each (state, op)
// edge runs once, as the last op of a stream. It returns the states
// visited and the streams run.
func enumerate(t *testing.T, ds daemonStream, depth int) (states, streams int) {
	type stream struct {
		ops []streamOp
		end Status
	}
	run := func(ops []streamOp) Status {
		defer func() {
			if t.Failed() {
				t.Logf("the failing stream: %v", ops)
			}
		}()
		streams++
		return runDeliverLockstep(t, ds, ops).status
	}
	frontier := []stream{{nil, run(nil)}}
	seen := map[string]bool{canonical(frontier[0].end): true}
	for d := 1; d <= depth+2; d++ {
		var next []stream
		for _, s := range frontier {
			for _, op := range smallOps {
				if !acts(op, s.end) || d > depth && op.Op != "quote" && op.Op != "restore" && op.Op != "tick" {
					continue
				}
				ops := append(slices.Clip(s.ops), op)
				end := run(ops)
				key := canonical(end)
				if !seen[key] && (d < depth || end.FailedProcs == end.Capacity) {
					next = append(next, stream{ops, end})
				}
				seen[key] = true
			}
		}
		frontier = next
	}
	return len(seen), streams
}

// TestShortStreamsLockstep holds the daemon to the naive daemon on every
// short stream of smallOps, each checked as the stream interpreter
// checks a stream, under FCFS, SJF and dynP/advanced: by the small-scope
// hypothesis, most defects show on some small instance. Under FCFS the
// daemon is also killed inside every op that writes the journal
// (crashOp), recovery included, and under dynP/advanced
// inside every op that cuts a checkpoint, from the sync that seals its
// segment on, where the tuner's decision state is written. The crash
// points must include every kind each can reach.
func TestShortStreamsLockstep(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ds    func(t *testing.T) daemonStream
		kinds []string // the crash points that must occur, by kind
	}{
		{"FCFS", func(t *testing.T) daemonStream {
			return staticStream(t, smallCapacity, policy.FCFS)
		}, []string{"rotation", "between renames", "torn event", "torn checkpoint", "recovery"}},
		{"SJF", func(t *testing.T) daemonStream {
			return staticStream(t, smallCapacity, policy.SJF)
		}, nil},
		{"dynP/advanced", func(t *testing.T) daemonStream {
			return tunerStream(t, smallCapacity, func() core.Decider { return core.Advanced{} })
		}, []string{"rotation", "between renames", "torn checkpoint"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ds := tc.ds(t)
			if tc.kinds != nil {
				ds.crashes = &crashLog{kinds: map[string]int{}, replayed: map[[32]byte][2]string{},
					rotations: !slices.Contains(tc.kinds, "torn event")}
			}
			states, streams := enumerate(t, ds, shortDepth)
			t.Logf("depth %d: %d states visited, %d streams run", shortDepth, states, streams)
			if ds.crashes == nil {
				return
			}
			t.Logf("crash points by kind %v, %d sets of files replayed", ds.crashes.kinds, len(ds.crashes.replayed))
			for _, kind := range tc.kinds {
				if ds.crashes.kinds[kind] == 0 {
					t.Errorf("no crash point of kind %q", kind)
				}
			}
		})
	}
}

// shortSeeds are the enumeration's shortest streams, in streamOp's
// String form, for each tie rule of DESIGN §9 a daemon stream shows and
// for a machine drained while jobs wait and run.
var shortSeeds = [][]string{
	{"deliver 1x3 3x1", "tick +3"},                                       // 3: an expiry kills, then a plan starts the next job
	{"submit 1x2", "deliver +2 #0"},                                      // 4: a completion at the estimate is no kill
	{"submit 1x1", "submit 1x2", "deliver +2 #1"},                        // 4: the machine acts before the batch's instant
	{"deliver 1x3 2x2", "deliver +2 #0"},                                 // 4: an expiry at the instant ends after the completions
	{"deliver 1x3 3x1", "done #0"},                                       // 5: one change, then one plan
	{"deliver 1x3 2x2", "fail #0"},                                       // 6: a failure kills the later of a start tie
	{"submit 3x1", "quote 2x2 *2"},                                       // 7: replicas planned in turn, through a kill
	{"fail #0", "quote 3x1 *2"},                                          // 7: too wide never starts
	{"fail #0", "fail #0", "deliver 1x3 1x3", "fail #0", "quote 1x3 *2"}, // drained
	{"fail #0", "fail #0", "deliver 1x3 1x3", "fail #0", "restore #0"},   // drained, then restored
}

// encodeShort writes a stream of smallOps, in String form, one byte an
// op, as FuzzDeliverLockstep reads it.
func encodeShort(tb testing.TB, ops []string) []byte {
	var data []byte
	for _, s := range ops {
		i := slices.IndexFunc(smallOps, func(op streamOp) bool { return op.String() == s })
		if i < 0 {
			tb.Fatalf("no op %q in smallOps", s)
		}
		data = append(data, byte(i))
	}
	return data
}
