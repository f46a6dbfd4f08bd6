// Package timeline records and renders the dynamics of a simulation run:
// the waiting-queue length over time and the active-policy history of the
// self-tuning scheduler. Both render as compact terminal strips, which is
// how the saturation effects and the policy switching of the paper become
// visible on a single screen.
package timeline

import (
	"fmt"
	"io"
	"strings"

	"dynp/internal/core"
	"dynp/internal/policy"
)

// QueueSeries is a sampled time series of the waiting-queue length. Feed
// it to sim.Run through WithQueueProbe.
type QueueSeries struct {
	Times []int64
	Queue []int
}

// Probe returns a callback for sim.WithQueueProbe that appends samples.
func (q *QueueSeries) Probe() func(now int64, queued int) {
	return func(now int64, queued int) {
		q.Times = append(q.Times, now)
		q.Queue = append(q.Queue, queued)
	}
}

// Max returns the largest observed queue length.
func (q *QueueSeries) Max() int {
	max := 0
	for _, v := range q.Queue {
		if v > max {
			max = v
		}
	}
	return max
}

// Mean returns the time-unweighted mean queue length over the samples.
func (q *QueueSeries) Mean() float64 {
	if len(q.Queue) == 0 {
		return 0
	}
	var sum int
	for _, v := range q.Queue {
		sum += v
	}
	return float64(sum) / float64(len(q.Queue))
}

// sparkGlyphs are eight fill levels for the queue strip.
const sparkGlyphs = " .:-=+*#"

// Sparkline renders the queue series as a fixed-width strip: time is
// bucketed onto the width, each bucket shows the maximum queue length seen
// in it, scaled against the global maximum.
func (q *QueueSeries) Sparkline(w io.Writer, width int) error {
	if width < 10 {
		return fmt.Errorf("timeline: width %d too small", width)
	}
	if len(q.Times) == 0 {
		return fmt.Errorf("timeline: no samples")
	}
	t0, t1 := q.Times[0], q.Times[len(q.Times)-1]
	if t1 == t0 {
		t1 = t0 + 1
	}
	buckets := make([]int, width)
	for i, tm := range q.Times {
		b := int(float64(tm-t0) / float64(t1-t0) * float64(width-1))
		if q.Queue[i] > buckets[b] {
			buckets[b] = q.Queue[i]
		}
	}
	max := q.Max()
	var sb strings.Builder
	fmt.Fprintf(&sb, "queue length over time (max %d, mean %.1f)\n", max, q.Mean())
	sb.WriteString("|")
	for _, v := range buckets {
		idx := 0
		if max > 0 {
			idx = v * (len(sparkGlyphs) - 1) / max
		}
		sb.WriteByte(sparkGlyphs[idx])
	}
	sb.WriteString("|\n")
	_, err := io.WriteString(w, sb.String())
	return err
}

// PolicyStrip renders the active-policy history from a decision trace as
// a fixed-width strip (F/S/L per time bucket; the policy active for the
// longest span in a bucket wins). The end time bounds the last segment.
func PolicyStrip(w io.Writer, trace []core.Decision, end int64, width int) error {
	if width < 10 {
		return fmt.Errorf("timeline: width %d too small", width)
	}
	if len(trace) == 0 {
		return fmt.Errorf("timeline: empty decision trace")
	}
	t0 := trace[0].Time
	if end <= t0 {
		return fmt.Errorf("timeline: end %d not after first decision %d", end, t0)
	}
	span := float64(end - t0)

	// Accumulate active time per policy per bucket.
	letters := map[policy.Policy]byte{policy.FCFS: 'F', policy.SJF: 'S', policy.LJF: 'L',
		policy.SAF: 'A', policy.LAF: 'G'}
	type acc map[policy.Policy]float64
	buckets := make([]acc, width)
	for i := range buckets {
		buckets[i] = acc{}
	}
	add := func(p policy.Policy, from, to int64) {
		if to <= from {
			return
		}
		b0 := float64(from-t0) / span * float64(width)
		b1 := float64(to-t0) / span * float64(width)
		for b := int(b0); b <= int(b1) && b < width; b++ {
			lo, hi := float64(b), float64(b+1)
			if b0 > lo {
				lo = b0
			}
			if b1 < hi {
				hi = b1
			}
			if hi > lo {
				buckets[b][p] += hi - lo
			}
		}
	}
	for i, d := range trace {
		segEnd := end
		if i+1 < len(trace) {
			segEnd = trace[i+1].Time
		}
		add(d.Chosen, d.Time, segEnd)
	}

	var sb strings.Builder
	sb.WriteString("active policy over time (F=FCFS, S=SJF, L=LJF)\n|")
	for _, b := range buckets {
		best, bestV := byte(' '), 0.0
		for p, v := range b {
			if v > bestV {
				best, bestV = letters[p], v
			}
		}
		sb.WriteByte(best)
	}
	sb.WriteString("|\n")
	_, err := io.WriteString(w, sb.String())
	return err
}
