// Package eventq implements a deterministic pending-event set: a binary
// min-heap ordered by event time, then by an explicit priority class,
// then by insertion order, so two events scheduled for the same time and
// class are always dispatched first-scheduled-first.
//
// Deprecated: the simulator keeps no event queue; the engine's running
// set, in start order, is its completion queue (engine.NextEnd,
// engine.FinishEnded). The package stays while benchmark/trace.go
// replays the queue the simulator used to keep (ROADMAP.md, item 2(a)).
package eventq

// Queue is a deterministic discrete event queue. The zero value is an
// empty queue ready for use.
type Queue[T any] struct {
	heap []entry[T]
	seq  uint64
}

// Event is the externally visible view of a queued event.
type Event[T any] struct {
	Time    int64 // simulation time of the event
	Class   int   // dispatch class; lower dispatches first at equal time
	Payload T
}

type entry[T any] struct {
	Event[T]
	seq uint64
}

// Len reports the number of pending events.
func (q *Queue[T]) Len() int { return len(q.heap) }

// Push schedules payload at the given time and class.
func (q *Queue[T]) Push(time int64, class int, payload T) {
	q.seq++
	q.heap = append(q.heap, entry[T]{Event[T]{time, class, payload}, q.seq})
	q.up(len(q.heap) - 1)
}

// Peek returns the next event without removing it. ok is false when the
// queue is empty.
func (q *Queue[T]) Peek() (ev Event[T], ok bool) {
	if len(q.heap) == 0 {
		return ev, false
	}
	return q.heap[0].Event, true
}

// PopIf removes and returns the next event only when it is scheduled at
// exactly the given instant; ok is false (and the queue untouched) when
// the queue is empty or its head lies at another time. Event loops that
// drain one instant completely use it to fuse the Peek-compare-Pop
// sequence into a single heap inspection.
func (q *Queue[T]) PopIf(time int64) (ev Event[T], ok bool) {
	if len(q.heap) == 0 || q.heap[0].Time != time {
		return ev, false
	}
	return q.Pop()
}

// Reserve grows the queue's storage so at least n more events can be
// pushed without reallocating.
//
// Deprecated: a queue grows to its working size in a few pushes. It
// stays while benchmark/trace.go calls it (ROADMAP.md, item 2(a)).
func (q *Queue[T]) Reserve(n int) {
	if cap(q.heap)-len(q.heap) >= n {
		return
	}
	heap := make([]entry[T], len(q.heap), len(q.heap)+n)
	copy(heap, q.heap)
	q.heap = heap
}

// Pop removes and returns the next event. ok is false when the queue is
// empty.
func (q *Queue[T]) Pop() (ev Event[T], ok bool) {
	if len(q.heap) == 0 {
		return ev, false
	}
	top := q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	return top.Event, true
}

func (q *Queue[T]) less(i, j int) bool {
	a, b := &q.heap[i], &q.heap[j]
	if a.Time != b.Time {
		return a.Time < b.Time
	}
	if a.Class != b.Class {
		return a.Class < b.Class
	}
	return a.seq < b.seq
}

func (q *Queue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *Queue[T]) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.heap[i], q.heap[smallest] = q.heap[smallest], q.heap[i]
		i = smallest
	}
}
