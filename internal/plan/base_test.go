package plan_test

import (
	"fmt"
	"slices"
	"testing"

	"dynp/internal/job"
	"dynp/internal/plan"
)

// baseHistory is a machine whose running set changes the way a
// scheduler's does between events: jobs start at the current instant,
// finish early or at their estimated end, the clock stands still or jumps
// past several ends, processors fail and come back. It also does what no
// engine does — moves the clock backwards, keeps a job past its
// estimated end, reorders the running set — because Reset must be exact
// for those too.
type baseHistory struct {
	full, capacity int
	now            int64
	running        []plan.Running
	next           job.ID
}

func (h *baseHistory) used() (n int) {
	for _, r := range h.running {
		n += r.Job.Width
	}
	return n
}

// step applies the operation the three bytes encode.
func (h *baseHistory) step(op, a, b byte) {
	pick := func() int { return int(a) % len(h.running) }
	switch op % 10 {
	case 0, 1: // a job starts now, if it fits
		w := 1 + int(a)%h.capacity
		if h.used()+w > h.capacity {
			return
		}
		est := 1 + int64(b%40)
		h.next++
		h.running = append(h.running, plan.Running{
			Job:   &job.Job{ID: h.next, Width: w, Estimate: est, Runtime: est},
			Start: h.now,
		})
	case 2: // a job finishes early
		if len(h.running) > 0 {
			h.running = slices.Delete(h.running, pick(), pick()+1)
		}
	case 3: // the clock stands still
	case 4: // the clock moves to a reservation's end, which finishes there
		if len(h.running) == 0 {
			return
		}
		k := pick()
		if end := h.running[k].EstimatedEnd(); end >= h.now {
			h.now = end
			h.running = slices.Delete(h.running, k, k+1)
		}
	case 5: // the clock jumps, past several ends when b is large;
		// with a odd, the jobs whose estimates ran out stay
		h.now += int64(b % 64)
		if a%2 == 0 {
			h.running = slices.DeleteFunc(h.running, func(r plan.Running) bool {
				return r.EstimatedEnd() <= h.now
			})
		}
	case 6: // processors fail, as many as are idle at most
		h.capacity = max(1, h.used(), h.capacity-1-int(a)%4)
	case 7: // they come back
		h.capacity = h.full
	case 8: // the clock moves backwards
		h.now -= 1 + int64(b%16)
	case 9: // two running jobs trade places
		if len(h.running) > 1 {
			i, j := pick(), int(b)%len(h.running)
			h.running[i], h.running[j] = h.running[j], h.running[i]
		}
	}
}

// FuzzBaseReset drives one long-lived Base through a random running-set
// history and requires, after every Reset, the profile a fresh Base
// builds for the same event, step for step, and a valid representation.
// An incremental Reset that leaves a boundary a rebuild would not have
// fails here even though no placement could tell.
func FuzzBaseReset(f *testing.F) {
	// Two jobs start, the later-ending one finishes early (its end's
	// boundary must go), the clock stands still, moves to the other's end
	// and jumps past several ends.
	f.Add([]byte{0, 3, 20, 0, 5, 30, 2, 1, 0, 3, 0, 0, 0, 2, 9, 4, 0, 0, 0, 1, 3, 5, 0, 200}, uint8(16))
	f.Add([]byte{0, 1, 9, 0, 2, 9, 0, 3, 30, 6, 0, 0, 4, 0, 0, 7, 0, 0, 0, 7, 3, 8, 0, 5, 9, 0, 1}, uint8(12))
	f.Add([]byte{0, 0, 5, 0, 1, 5, 0, 2, 17, 5, 1, 5, 5, 1, 40, 3, 0, 0, 2, 1, 0}, uint8(7))
	f.Fuzz(func(t *testing.T, ops []byte, cap8 uint8) {
		full := 1 + int(cap8%64)
		h := &baseHistory{full: full, capacity: full, now: 1000}
		var live plan.Base
		for i := 0; i+2 < len(ops) && i < 600; i += 3 {
			h.step(ops[i], ops[i+1], ops[i+2])
			live.Reset(h.now, h.capacity, h.running)
			var fresh plan.Base
			fresh.Reset(h.now, h.capacity, h.running)
			if err := sameBase(&live, &fresh); err != nil {
				t.Fatalf("op %d (%d): %v", i/3, ops[i]%10, err)
			}
		}
	})
}

// sameBase reports how two bases differ, if they do.
func sameBase(got, want *plan.Base) error {
	if got.Now != want.Now || got.Capacity != want.Capacity {
		return fmt.Errorf("event (%d, %d), want (%d, %d)", got.Now, got.Capacity, want.Now, want.Capacity)
	}
	gp, wp := got.Profile(), want.Profile()
	if err := gp.CheckInvariants(); err != nil {
		return err
	}
	gt, gf := gp.Steps()
	wt, wf := wp.Steps()
	if !slices.Equal(gt, wt) || !slices.Equal(gf, wf) {
		return fmt.Errorf("steps %v %v, a fresh base has %v %v", gt, gf, wt, wf)
	}
	return nil
}

// TestBaseResetIncrementalAllocs gates the incremental Reset: once the
// base's storage has grown, an event where the clock moves on, jobs
// finish and one starts allocates nothing.
func TestBaseResetIncrementalAllocs(t *testing.T) {
	jobs := make([]*job.Job, 64)
	for i := range jobs {
		est := int64(1 + i%37)
		jobs[i] = &job.Job{ID: job.ID(i + 1), Width: 1 + i%3, Estimate: est, Runtime: est}
	}
	var b plan.Base
	running := make([]plan.Running, 0, len(jobs))
	now, i := int64(1000), 0
	event := func() {
		now += int64(i % 3)
		running = slices.DeleteFunc(running, func(r plan.Running) bool { return r.EstimatedEnd() <= now })
		if len(running) > 20 {
			running = slices.Delete(running, i%len(running), i%len(running)+1)
		}
		j := jobs[i%len(jobs)]
		if !slices.ContainsFunc(running, func(r plan.Running) bool { return r.Job == j }) {
			running = append(running, plan.Running{Job: j, Start: now})
		}
		i++
		b.Reset(now, 128, running)
	}
	for range 200 { // warm: the running set and profile reach their size
		event()
	}
	if avg := testing.AllocsPerRun(500, event); avg != 0 {
		t.Errorf("an incremental Reset allocates %.2f objects, want 0", avg)
	}
	var fresh plan.Base
	fresh.Reset(now, 128, running)
	if err := sameBase(&b, &fresh); err != nil {
		t.Fatal(err)
	}
}
