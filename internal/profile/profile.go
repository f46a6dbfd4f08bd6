// Package profile implements the resource availability profile of a
// planning-based scheduler: a step function over time giving the number of
// free processors. Placing every waiting job at the earliest interval that
// can hold its width for its full estimated run time yields the implicit
// backfilling the paper attributes to planning-based resource management
// systems ([6] in the paper).
//
// The step function is two parallel slices — boundary times and the free
// count from each boundary to the next — and nothing else. The profiles a
// planning step builds hold tens of steps, a few hundred at most (DESIGN.md
// §11 has the measured sizes), so a placement is a binary search to its
// earliest instant, a forward scan over the window it needs, and one
// insertion that opens both of its boundaries at once.
package profile

import (
	"fmt"
	"slices"
)

// Profile is a free-processor timeline: free[i] processors are free from
// times[i] (inclusive) until times[i+1] (exclusive), the last step
// extending to infinity. Create one with New, or Reset / CloneInto a zero
// value.
type Profile struct {
	capacity int
	times    []int64 // strictly increasing; never empty once initialised
	free     []int   // len(free) == len(times)
}

// New returns a profile for a machine with the given capacity where all
// processors are free from time start onwards. It panics if capacity < 1.
func New(capacity int, start int64) *Profile {
	p := &Profile{}
	p.Reset(capacity, start)
	return p
}

// Reset reinitialises p to a machine with the given capacity where all
// processors are free from start onwards, reusing the storage. A
// zero-value p is valid. It panics if capacity < 1, like New.
func (p *Profile) Reset(capacity int, start int64) {
	if capacity < 1 {
		panic(fmt.Sprintf("profile: capacity %d < 1", capacity))
	}
	p.capacity = capacity
	p.times = append(p.times[:0], start)
	p.free = append(p.free[:0], capacity)
}

// Capacity returns the machine capacity the profile was built with.
func (p *Profile) Capacity() int { return p.capacity }

// Start returns the first instant covered by the profile.
func (p *Profile) Start() int64 { return p.times[0] }

// FreeAt returns the number of free processors at time t. It panics when t
// precedes the profile start: the profile carries no information about the
// past, so asking for it is a scheduler bug (the same contract as
// EarliestFit and Alloc).
func (p *Profile) FreeAt(t int64) int {
	if t < p.Start() {
		panic(fmt.Sprintf("profile: time %d precedes profile start %d", t, p.Start()))
	}
	return p.free[p.find(t)]
}

// find returns the index of the step covering time t, the last one whose
// time is <= t; the caller guarantees t >= p.Start(). Most searches of a
// build start at the profile's own start, so the first step is tried before
// the binary search, whose body is one compare and a conditional add.
func (p *Profile) find(t int64) int {
	times := p.times
	lo, n := 0, len(times)
	if n > 1 && t < times[1] {
		return 0
	}
	for n > 1 {
		half := n >> 1
		if times[lo+half] <= t {
			lo += half
		}
		n -= half
	}
	return lo
}

// EarliestFit returns the earliest time >= earliest at which width
// processors are free for the whole interval [t, t+duration). It panics if
// width exceeds the capacity, the arguments are non-positive, or earliest
// precedes the profile start — the profile carries no information about
// the past, so asking for it is a scheduler bug.
func (p *Profile) EarliestFit(earliest int64, width int, duration int64) int64 {
	p.check(earliest, width, duration)
	_, _, start := p.search(earliest, width, duration)
	return start
}

// search finds the earliest fit and returns it with the index i of the
// step covering it and the index j of the first step at or past its end
// (len(times) when the window runs into the final step), which is what a
// reservation needs to open its boundaries without searching again. A
// candidate is a step with enough free processors, its start the later of
// the step's time and earliest; it is accepted when no step beginning
// inside its window has too few, and a rejected candidate resumes behind
// its first blocker.
func (p *Profile) search(earliest int64, width int, duration int64) (i, j int, start int64) {
	times := p.times
	free := p.free[:len(times)]
	for i = p.find(earliest); ; i = j + 1 {
		for i < len(free) && free[i] < width {
			i++
		}
		if i == len(free) {
			panic(fmt.Sprintf("profile: no fit for width %d after final step (free %d)",
				width, free[len(free)-1]))
		}
		start = max(times[i], earliest)
		end := start + duration
		for j = i + 1; j < len(free) && times[j] < end && free[j] >= width; j++ {
		}
		if j == len(free) || times[j] >= end {
			return i, j, start
		}
	}
}

// FitsAt reports whether width processors are free for the whole interval
// [t, t+duration): whether EarliestFit(t, width, duration) would return t.
// It has EarliestFit's panics.
func (p *Profile) FitsAt(t int64, width int, duration int64) bool {
	p.check(t, width, duration)
	end := t + duration
	for i := p.find(t); i < len(p.times) && p.times[i] < end; i++ {
		if p.free[i] < width {
			return false
		}
	}
	return true
}

// Alloc reserves width processors over [start, start+duration). The caller
// must have obtained start from EarliestFit (or otherwise guarantee the
// interval fits); Alloc panics when the reservation would drive any step
// negative, as that indicates a scheduler bug. It also panics when start
// precedes the profile start: the steps before the profile begin are not
// represented, so such a reservation would be silently clipped to
// [p.Start(), start+duration) — a shrunken reservation the caller never
// asked for.
func (p *Profile) Alloc(start int64, width int, duration int64) {
	p.check(start, width, duration)
	end := start + duration
	i := p.find(start)
	j := p.find(end)
	if p.times[j] < end {
		j++
	}
	p.reserve(i, j, start, end, width)
}

// Place combines EarliestFit and Alloc: it reserves width processors for
// duration at the earliest feasible time >= earliest and returns the chosen
// start time.
func (p *Profile) Place(earliest int64, width int, duration int64) int64 {
	start, _ := p.PlaceDepth(earliest, width, duration)
	return start
}

// PlaceDepth is Place also reporting how deep into the profile the
// reservation landed: the number of steps that precede the step beginning
// at the returned start. A caller placing many jobs onto one profile reads
// it as the length of the saturated head a search from the profile start
// had to cross (see plan's dominance-bounded search).
func (p *Profile) PlaceDepth(earliest int64, width int, duration int64) (start int64, depth int) {
	p.check(earliest, width, duration)
	i, j, start := p.search(earliest, width, duration)
	return start, p.reserve(i, j, start, start+duration, width)
}

// Release returns width processors over [start, start+duration): the
// inverse of Alloc. It opens the boundaries the interval lacks as Alloc
// does, adds width over the window, and then drops the boundary at start
// and the one at end wherever the free count no longer changes there, so
// releasing a reservation from a profile without redundant steps leaves
// none behind. It panics when a step would end up with more than the
// capacity free — the released processors were never reserved — and has
// Alloc's other panics.
func (p *Profile) Release(start int64, width int, duration int64) {
	p.check(start, width, duration)
	end := start + duration
	i := p.find(start)
	j := p.find(end)
	if p.times[j] < end {
		j++
	}
	lo := p.reserve(i, j, start, end, 0) // opens the boundaries
	hi := lo
	for ; hi < len(p.times) && p.times[hi] < end; hi++ {
		p.free[hi] += width
		if p.free[hi] > p.capacity {
			panic(fmt.Sprintf("profile: over-release at t=%d: %d free after releasing width %d",
				p.times[hi], p.free[hi], width))
		}
	}
	if hi < len(p.times) && p.free[hi] == p.free[hi-1] {
		p.drop(hi)
	}
	if lo > 0 && p.free[lo] == p.free[lo-1] {
		p.drop(lo)
	}
}

// drop removes step k, which merges it into the step before.
func (p *Profile) drop(k int) {
	p.times = slices.Delete(p.times, k, k+1)
	p.free = slices.Delete(p.free, k, k+1)
}

// Advance moves the profile's start to t, forgetting every step that ends
// at or before t: the profile then describes [t, infinity) exactly as it
// did before. It panics when t precedes the profile start, which would
// ask the profile to invent the past.
func (p *Profile) Advance(t int64) {
	if t < p.Start() {
		panic(fmt.Sprintf("profile: advance to %d precedes profile start %d", t, p.Start()))
	}
	if k := p.find(t); k > 0 {
		p.times = slices.Delete(p.times, 0, k)
		p.free = slices.Delete(p.free, 0, k)
	}
	p.times[0] = t
}

// reserve subtracts width from [start, end), given the index i of the step
// covering start and the index j of the first step at or past end, and
// returns the index of the step that now begins at start. The boundaries
// the interval lacks are opened together: the steps from j on move up by
// the number of new boundaries, the window's own steps by one when start
// gets a boundary, and the new steps take the free count of the step they
// split — so the subtraction that follows runs over whole, contiguous
// steps.
func (p *Profile) reserve(i, j int, start, end int64, width int) int {
	n := len(p.times)
	lo, hi := i, j // the window's steps, [lo, hi), once the boundaries exist
	if p.times[i] != start {
		lo, hi = i+1, j+1
	}
	tail := hi // where the steps from j on land
	if j == n || p.times[j] != end {
		tail++
	}
	if tail != j {
		p.times = slices.Grow(p.times, tail-j)[:n+tail-j]
		p.free = slices.Grow(p.free, tail-j)[:n+tail-j]
		endFree := p.free[j-1]
		copy(p.times[tail:], p.times[j:n])
		copy(p.free[tail:], p.free[j:n])
		if lo != i {
			copy(p.times[lo+1:], p.times[lo:j])
			copy(p.free[lo+1:], p.free[lo:j])
			p.times[lo], p.free[lo] = start, p.free[i]
		}
		if tail != hi {
			p.times[hi], p.free[hi] = end, endFree
		}
	}
	times, free := p.times[lo:hi], p.free[lo:hi]
	for k := range free {
		free[k] -= width
		if free[k] < 0 {
			panic(fmt.Sprintf("profile: over-allocation at t=%d: %d free after placing width %d",
				times[k], free[k], width))
		}
	}
	return lo
}

func (p *Profile) check(start int64, width int, duration int64) {
	if start < p.Start() {
		panic(fmt.Sprintf("profile: time %d precedes profile start %d", start, p.Start()))
	}
	if width < 1 || width > p.capacity {
		panic(fmt.Sprintf("profile: width %d out of [1, %d]", width, p.capacity))
	}
	if duration < 1 {
		panic(fmt.Sprintf("profile: duration %d < 1", duration))
	}
}

// Steps returns a copy of the step function as parallel slices of times
// and free counts, mainly for tests and debugging output, including the
// redundant equal-valued neighbours that reservations leave behind.
func (p *Profile) Steps() (times []int64, free []int) {
	return slices.Clone(p.times), slices.Clone(p.free)
}

// Clone returns an independent deep copy of the profile.
func (p *Profile) Clone() *Profile {
	c := &Profile{}
	p.CloneInto(c)
	return c
}

// CloneInto makes dst an independent deep copy of p, reusing dst's storage
// when it is large enough. A zero-value dst is valid. This is the
// allocation-lean sibling of Clone: a destination kept across calls
// reaches a steady state where cloning allocates nothing.
func (p *Profile) CloneInto(dst *Profile) {
	dst.capacity = p.capacity
	dst.times = append(dst.times[:0], p.times...)
	dst.free = append(dst.free[:0], p.free...)
}

// CheckInvariants verifies the representation against its definition: the
// two slices have the same non-zero length, step times strictly increase,
// and every free count lies in [0, capacity]. Tests call it after mutation
// sequences; production code never needs to.
func (p *Profile) CheckInvariants() error {
	if p.capacity < 1 {
		return fmt.Errorf("profile: capacity %d < 1", p.capacity)
	}
	if len(p.times) == 0 || len(p.times) != len(p.free) {
		return fmt.Errorf("profile: %d step times, %d free counts", len(p.times), len(p.free))
	}
	for i, t := range p.times {
		if i > 0 && t <= p.times[i-1] {
			return fmt.Errorf("profile: step time %d at step %d not after %d", t, i, p.times[i-1])
		}
		if f := p.free[i]; f < 0 || f > p.capacity {
			return fmt.Errorf("profile: free %d at t=%d out of [0, %d]", f, t, p.capacity)
		}
	}
	return nil
}

// String renders the profile compactly for debugging.
func (p *Profile) String() string {
	s := fmt.Sprintf("profile(cap=%d", p.capacity)
	for i, t := range p.times {
		s += fmt.Sprintf(" [%d:%d]", t, p.free[i])
	}
	return s + ")"
}
