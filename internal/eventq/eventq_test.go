package eventq

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyQueue(t *testing.T) {
	var q Queue[int]
	if q.Len() != 0 {
		t.Fatalf("empty queue Len = %d", q.Len())
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("Pop on empty queue reported ok")
	}
	if _, ok := q.Peek(); ok {
		t.Fatal("Peek on empty queue reported ok")
	}
}

func TestTimeOrdering(t *testing.T) {
	var q Queue[string]
	q.Push(30, 0, "c")
	q.Push(10, 0, "a")
	q.Push(20, 0, "b")
	want := []string{"a", "b", "c"}
	for _, w := range want {
		ev, ok := q.Pop()
		if !ok || ev.Payload != w {
			t.Fatalf("got %q ok=%v, want %q", ev.Payload, ok, w)
		}
	}
}

func TestClassBreaksTimeTies(t *testing.T) {
	var q Queue[string]
	q.Push(10, 1, "submit")
	q.Push(10, 0, "finish")
	ev, _ := q.Pop()
	if ev.Payload != "finish" {
		t.Fatalf("class 0 should dispatch before class 1 at equal time, got %q", ev.Payload)
	}
}

func TestFIFOWithinTimeAndClass(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 100; i++ {
		q.Push(5, 0, i)
	}
	for i := 0; i < 100; i++ {
		ev, _ := q.Pop()
		if ev.Payload != i {
			t.Fatalf("insertion order violated: got %d at position %d", ev.Payload, i)
		}
	}
}

func TestPeekDoesNotRemove(t *testing.T) {
	var q Queue[int]
	q.Push(1, 0, 42)
	if ev, ok := q.Peek(); !ok || ev.Payload != 42 {
		t.Fatal("Peek failed")
	}
	if q.Len() != 1 {
		t.Fatal("Peek removed the event")
	}
}

func TestInterleavedPushPop(t *testing.T) {
	var q Queue[int64]
	rnd := rand.New(rand.NewSource(1))
	var popped []int64
	for round := 0; round < 50; round++ {
		for i := 0; i < 20; i++ {
			tm := int64(rnd.Intn(1000))
			q.Push(tm, 0, tm)
		}
		for i := 0; i < 10; i++ {
			ev, ok := q.Pop()
			if !ok {
				t.Fatal("unexpected empty queue")
			}
			popped = append(popped, ev.Time)
		}
	}
	for q.Len() > 0 {
		ev, _ := q.Pop()
		popped = append(popped, ev.Time)
	}
	// Not globally sorted (interleaving), but every pop must return the
	// minimum of what was in the queue; verify via a replay.
	if len(popped) != 1000 {
		t.Fatalf("popped %d events, want 1000", len(popped))
	}
}

func TestPropertyPopsSorted(t *testing.T) {
	// When all pushes happen before all pops, pops come out sorted by
	// time with FIFO stability.
	if err := quick.Check(func(times []int64) bool {
		var q Queue[int]
		for i, tm := range times {
			if tm < 0 {
				tm = -tm
			}
			q.Push(tm%1000, 0, i)
		}
		var got []int64
		for q.Len() > 0 {
			ev, _ := q.Pop()
			got = append(got, ev.Time)
		}
		return sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] })
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyHeapMatchesSort(t *testing.T) {
	if err := quick.Check(func(times []uint16) bool {
		var q Queue[int]
		want := make([]int64, len(times))
		for i, tm := range times {
			q.Push(int64(tm), 0, i)
			want[i] = int64(tm)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := 0; q.Len() > 0; i++ {
			ev, _ := q.Pop()
			if ev.Time != want[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPopIf(t *testing.T) {
	var q Queue[string]
	if _, ok := q.PopIf(0); ok {
		t.Fatal("PopIf on empty queue reported ok")
	}
	q.Push(10, 1, "submit")
	q.Push(10, 0, "finish")
	q.Push(20, 0, "later")

	if _, ok := q.PopIf(5); ok {
		t.Fatal("PopIf popped at the wrong instant")
	}
	if q.Len() != 3 {
		t.Fatal("a refused PopIf modified the queue")
	}

	// Draining one instant preserves the class-then-FIFO dispatch order.
	var batch []string
	for {
		ev, ok := q.PopIf(10)
		if !ok {
			break
		}
		batch = append(batch, ev.Payload)
	}
	if len(batch) != 2 || batch[0] != "finish" || batch[1] != "submit" {
		t.Fatalf("batch = %v, want [finish submit]", batch)
	}
	if ev, ok := q.PopIf(20); !ok || ev.Payload != "later" {
		t.Fatalf("PopIf(20) = %v ok=%v", ev.Payload, ok)
	}
	if _, ok := q.PopIf(20); ok {
		t.Fatal("PopIf on drained queue reported ok")
	}
}

func TestPopIfMatchesPeekPop(t *testing.T) {
	// PopIf(t) is exactly the Peek-compare-Pop sequence it replaces:
	// two queues built by the same push sequence drain identically. So
	// does a clone of the first, taken mid-stream after some pops, once
	// it is pushed the same further events: same-time, same-class ties
	// among them and with the queued events. A clone that restarted the
	// insertion counter would dispatch its new events ahead of the queued
	// ones they tie with.
	rnd := rand.New(rand.NewSource(7))
	var a, b, c Queue[int]
	for i := 0; i < 800; i++ {
		if i == 500 {
			for k := 0; k < 100; k++ {
				a.Pop()
				b.Pop()
			}
			c = a.Clone()
		}
		tm, cl := int64(rnd.Intn(50)), rnd.Intn(2)
		a.Push(tm, cl, i)
		b.Push(tm, cl, i)
		if i >= 500 {
			c.Push(tm, cl, i)
		}
	}
	for a.Len() > 0 {
		head, _ := a.Peek()
		now := head.Time
		for {
			h, ok := a.Peek()
			if !ok || h.Time != now {
				break
			}
			want, _ := a.Pop()
			got, ok := b.PopIf(now)
			if !ok || got != want {
				t.Fatalf("PopIf(%d) = %+v ok=%v, Peek+Pop = %+v", now, got, ok, want)
			}
			if got, _ := c.Pop(); got != want {
				t.Fatalf("clone popped %+v, original %+v", got, want)
			}
		}
		if _, ok := b.PopIf(now); ok {
			t.Fatalf("PopIf(%d) overran the instant", now)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("clone holds %d events its original does not", c.Len())
	}
}

func TestReserve(t *testing.T) {
	var q Queue[int]
	q.Push(3, 0, 3)
	q.Push(1, 0, 1)
	q.Reserve(100)
	if q.Len() != 2 {
		t.Fatalf("Reserve changed Len to %d", q.Len())
	}
	// No reallocation across 100 pushes after the reservation.
	before := cap(q.heap)
	for i := 0; i < 100; i++ {
		q.Push(int64(i), 0, i)
	}
	if cap(q.heap) != before {
		t.Fatalf("heap reallocated from %d to %d despite Reserve", before, cap(q.heap))
	}
	// A no-op when capacity already suffices.
	q.Reserve(0)
	if cap(q.heap) != before {
		t.Fatal("redundant Reserve reallocated")
	}
	// Ordering intact after the copy.
	last := int64(-1)
	for q.Len() > 0 {
		ev, _ := q.Pop()
		if ev.Time < last {
			t.Fatalf("order violated after Reserve: %d after %d", ev.Time, last)
		}
		last = ev.Time
	}
}
