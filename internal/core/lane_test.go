package core

import (
	"reflect"
	"slices"
	"testing"

	"dynp/internal/job"
	"dynp/internal/plan"
	"dynp/internal/policy"
)

// sorted builds the schedule of waiting under p from a full sort, on an
// idle machine.
func sorted(now int64, capacity int, waiting []*job.Job, p policy.Policy) *plan.Schedule {
	var base plan.Base
	base.Reset(now, capacity, nil)
	s := new(plan.Schedule)
	base.BuildInto([]*plan.Schedule{s}, [][]*job.Job{policy.Order(p, waiting)}, []policy.Policy{p})
	return s
}

// TestLaneFollowsPartialQueue: the lane plans whatever queue it is
// handed. While processors are down the engine hands it a filtered subset
// of its queue (job 2 withheld as too wide), then the whole queue again,
// in which the withheld job rejoins out of order; each plan must equal
// the one from a full sort.
func TestLaneFollowsPartialQueue(t *testing.T) {
	l := NewLane(policy.SJF)
	jobs := []*job.Job{mkJob(1, 0, 4, 100), mkJob(2, 0, 8, 50), mkJob(3, 0, 1, 10)}
	for _, ev := range []struct {
		capacity int
		queue    []*job.Job
	}{{8, jobs}, {4, []*job.Job{jobs[0], jobs[2]}}, {8, jobs}} {
		got := l.Build(0, ev.capacity, nil, ev.queue)[0]
		if want := sorted(0, ev.capacity, ev.queue, policy.SJF); !slices.Equal(got.Entries, want.Entries) {
			t.Fatalf("capacity %d: planned %v, want %v", ev.capacity, got.Entries, want.Entries)
		}
		if kept := l.Keep(0); kept != got {
			t.Fatal("Keep returned another schedule than Build's")
		}
	}
}

// TestKeepDoubleBuffers pins the lane's storage rule: the schedule Keep
// hands out is never a slot, so later Builds leave it intact, and the
// next Keep supersedes it together with every losing candidate.
func TestKeepDoubleBuffers(t *testing.T) {
	l := NewLane(policy.Candidates...)
	jobs := []*job.Job{mkJob(1, 0, 4, 100), mkJob(2, 0, 8, 50), mkJob(3, 0, 1, 10)}
	built := l.Build(0, 8, nil, jobs)
	losers := []*plan.Schedule{built[0], built[2]}
	kept := l.Keep(1)
	want := slices.Clone(kept.Entries)
	for _, s := range losers {
		if !s.Released() {
			t.Fatal("a losing candidate was not marked superseded")
		}
	}
	for round := 0; round < 3; round++ {
		for _, s := range l.Build(int64(round), 8, nil, jobs[round:]) {
			if s == kept {
				t.Fatal("Build rebuilt the schedule Keep handed out")
			}
		}
		if kept.Released() || !slices.Equal(kept.Entries, want) {
			t.Fatalf("round %d: the kept schedule changed under a Build", round)
		}
	}
	if next := l.Keep(0); next == kept || !kept.Released() {
		t.Fatal("the next Keep did not supersede the schedule handed out before")
	}
}

// forkingQueue returns a queue whose FCFS and LJF orders share their
// first half: the oldest jobs are the longest, in submission order.
func forkingQueue(n int) []*job.Job {
	jobs := make([]*job.Job, n)
	for i := range jobs {
		est := int64(10 + i%50)
		if i < n/2 {
			est = int64(1000 - i)
		}
		jobs[i] = mkJob(job.ID(i+1), int64(i), 1+i%8, est)
	}
	return jobs
}

// TestForkedLaneBuildAllocatesNothing: once its storage has grown, a lane
// whose candidate orders share a prefix builds and keeps without
// allocating — the fork storage is kept across events like the slots.
func TestForkedLaneBuildAllocatesNothing(t *testing.T) {
	jobs := forkingQueue(64)
	fcfs, ljf := policy.Order(policy.FCFS, jobs), policy.Order(policy.LJF, jobs)
	if !slices.Equal(fcfs[:32], ljf[:32]) || fcfs[32] == ljf[32] {
		t.Fatal("FCFS and LJF do not fork after the first half: the test proves nothing")
	}
	l := NewLane(policy.Candidates...)
	step := func() {
		l.Build(0, 8, nil, jobs)
		l.Keep(1)
	}
	step()
	step()
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("a warmed forking Build allocates %.2f objects, want 0", avg)
	}
}

// TestOnePolicyLaneHasNoForkStorage: a lane over one policy — every
// static driver's — never forks, so its base keeps no fork storage.
func TestOnePolicyLaneHasNoForkStorage(t *testing.T) {
	jobs := forkingQueue(64)
	l := NewLane(policy.FCFS)
	for k := 1; k <= len(jobs); k++ {
		l.Build(int64(k), 8, nil, jobs[:k])
		l.Keep(0)
	}
	if forks := reflect.ValueOf(&l.base).Elem().FieldByName("forks"); forks.Cap() != 0 {
		t.Fatalf("a one-policy lane grew fork storage for %d forks", forks.Cap())
	}
}

// TestLaneStorageGrowsGeometrically grows the queue by one job per event
// from 1 to n. About a dozen arrays grow with the queue — four schedules'
// entries, the base, scratch and fork profiles' two slices each, the three
// views and their copy of the queue — and each grows by doubling, so the
// whole run allocates O(log n) times, not once per event: doubling n adds
// about one allocation per array, where reallocating to the exact length
// would add n.
func TestLaneStorageGrowsGeometrically(t *testing.T) {
	const n = 512
	jobs := make([]*job.Job, n)
	for i := range jobs {
		jobs[i] = mkJob(job.ID(i+1), int64(i), 1+i%8, int64(10+i%50))
	}
	grow := func(n int) float64 {
		return testing.AllocsPerRun(1, func() {
			l := NewLane(policy.Candidates...)
			for k := 1; k <= n; k++ {
				l.Build(int64(k), 8, nil, jobs[:k])
				l.Keep(k % len(policy.Candidates))
			}
		})
	}
	half, full := grow(n/2), grow(n)
	if extra := full - half; extra > 32 {
		t.Fatalf("growing the queue from %d to %d jobs cost %.0f more allocations (%.0f in all), want at most 32", n/2, n, extra, full)
	}
}
