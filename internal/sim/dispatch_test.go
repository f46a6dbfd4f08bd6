package sim

import (
	"fmt"
	"slices"
	"testing"

	"dynp/internal/plan/plantest"
	"dynp/internal/policy"
)

// TestInstantDispatchOrder pins what one instant does, in order: the
// completions due then, in the order their jobs started; then the
// submissions, in set order; then one replan, whose launches may use the
// processors the completions freed — here for a job submitted at that
// very instant (job 4 at 10). Three jobs arrive at the first instant and
// two at the last one, which is also an instant of two completions. The
// oracle, which every run is held to, is pinned to the same list.
func TestInstantDispatchOrder(t *testing.T) {
	set := mkSet(4,
		j(1, 0, 3, 10, 10),
		j(2, 0, 1, 10, 10),
		j(3, 0, 1, 5, 5),
		j(4, 10, 3, 5, 5),
		j(5, 15, 2, 1, 1),
		j(6, 15, 2, 1, 1),
	)
	var rec plantest.Recorder
	res, err := Run(set, &Static{Policy: policy.FCFS}, WithVerify(), WithObserver(&rec))
	if err != nil {
		t.Fatal(err)
	}
	want := "submit 1@0 q1, submit 2@0 q2, submit 3@0 q3, start 1@0 q2, start 2@0 q1, plan 0@0 q1, " +
		"finish 1@10 q1, finish 2@10 q1, submit 4@10 q2, start 3@10 q1, start 4@10 q0, plan 0@10 q0, " +
		"finish 3@15 q0, finish 4@15 q0, submit 5@15 q1, submit 6@15 q2, start 5@15 q1, start 6@15 q0, plan 0@15 q0, " +
		"finish 5@16 q0, finish 6@16 q0, plan 0@16 q0"
	if got := plantest.Log(rec.Transitions); got != want {
		t.Fatalf("transitions\n got %v\nwant %v", got, want)
	}
	if got := plantest.Log(plantest.Simulate(set, plantest.Fixed{Policy: policy.FCFS}).Transitions); got != want {
		t.Fatalf("the oracle's transitions\n got %v\nwant %v", got, want)
	}
	var records []string
	for _, r := range res.Records {
		records = append(records, fmt.Sprintf("%d:%d-%d", r.Job.ID, r.Start, r.Finish))
	}
	if want := []string{"1:0-10", "2:0-10", "3:10-15", "4:10-15", "5:15-16", "6:15-16"}; !slices.Equal(records, want) {
		t.Fatalf("records %v, want %v", records, want)
	}
	if res.Events != 4 || res.Makespan != 16 {
		t.Fatalf("%d events, makespan %d; want 4 and 16", res.Events, res.Makespan)
	}
}
