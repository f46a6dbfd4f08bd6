package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestEveryTaskRunsOnce checks the core contract at many (workers, n)
// shapes, including workers > n, one task, and empty ranges.
func TestEveryTaskRunsOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 7, 16, 100} {
		for _, n := range []int{0, 1, 2, 7, 64, 1000} {
			ran := make([]atomic.Int32, n)
			err := Run(workers, n, func(i int) error {
				ran[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: task %d ran %d times", workers, n, i, got)
				}
			}
		}
	}
}

// TestDeterministicResultSlots writes each task's result into its fixed
// slot and checks the output is identical for every worker count — the
// property the experiment sweep and sim.RunParallel rely on.
func TestDeterministicResultSlots(t *testing.T) {
	const n = 257
	want := make([]int, n)
	if err := Run(1, n, func(i int) error { want[i] = i * i; return nil }); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8, 32} {
		got := make([]int, n)
		if err := Run(workers, n, func(i int) error { got[i] = i * i; return nil }); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: slot %d = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

// TestBlockedWorkerStrandsNoTask: with 2 workers over 8 tasks, task 0
// blocks until tasks 1, 2 and 3 have run. No task is pre-assigned to the
// blocked worker, so the other one must reach all three; a pool that
// parked any of them behind task 0 would deadlock here (bounded by the
// timeout).
func TestBlockedWorkerStrandsNoTask(t *testing.T) {
	var ownShardDone sync.WaitGroup
	ownShardDone.Add(3)
	released := make(chan struct{})
	go func() {
		ownShardDone.Wait()
		close(released)
	}()
	err := Run(2, 8, func(i int) error {
		switch {
		case i == 0:
			select {
			case <-released:
				return nil
			case <-time.After(10 * time.Second):
				return errors.New("tasks 1-3 never ran behind the blocked worker")
			}
		case i < 4:
			ownShardDone.Done()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestFirstErrorWins checks that among multiple failures the
// smallest-index error is reported, deterministically.
func TestFirstErrorWins(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("task %d failed", i) }
	for _, workers := range []int{1, 2, 8} {
		err := Run(workers, 100, func(i int) error {
			if i == 13 || i == 77 {
				return boom(i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		// A parallel run may cancel before claiming task 13 and report 77;
		// when both failures occur, the smaller index must win. The
		// sequential path always observes 13 first.
		if workers == 1 && err.Error() != "task 13 failed" {
			t.Fatalf("sequential: got %v", err)
		}
	}
}

// TestErrorCancelsRemainder checks that a failing task stops the pool
// from claiming (much of) the remainder.
func TestErrorCancelsRemainder(t *testing.T) {
	var ran atomic.Int32
	sentinel := errors.New("stop")
	err := Run(2, 10000, func(i int) error {
		ran.Add(1)
		if i == 0 {
			return sentinel
		}
		// Slow the survivors slightly so cancellation has time to land.
		time.Sleep(10 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
	if got := ran.Load(); got > 9000 {
		t.Fatalf("%d of 10000 tasks ran despite cancellation", got)
	}
}

// TestSequentialOrder pins the workers==1 fast path: in-order, on the
// calling goroutine, stopping at the first error.
func TestSequentialOrder(t *testing.T) {
	var order []int
	err := Run(1, 5, func(i int) error {
		order = append(order, i)
		if i == 3 {
			return errors.New("halt")
		}
		return nil
	})
	if err == nil || err.Error() != "halt" {
		t.Fatalf("err = %v", err)
	}
	want := []int{0, 1, 2, 3}
	if len(order) != len(want) {
		t.Fatalf("ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ran %v, want %v", order, want)
		}
	}
}
