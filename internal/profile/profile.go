// Package profile implements the resource availability profile of a
// planning-based scheduler: a step function over time giving the number of
// free processors. Placing every waiting job at the earliest interval that
// can hold its width for its full estimated run time yields the implicit
// backfilling the paper attributes to planning-based resource management
// systems ([6] in the paper).
//
// The step function is stored as an indexed sequence: steps are grouped
// into bounded chunks, and every chunk carries min/max aggregates of its
// free counts plus a lazy pending delta that applies to the whole chunk.
// The chunk directory is an implicit interval index over the step array —
// a branching-factor-B tree of depth two. EarliestFit descends it by
// skipping whole chunks whose aggregates prove them irrelevant, Alloc
// applies its range subtraction to interior chunks as one lazy delta, and
// boundary splits shift at most one chunk instead of the whole step array.
// The observable step function — and therefore every schedule built on it
// — is identical to the flat-array implementation kept as Linear; only the
// costs differ (see DESIGN.md §11 for the complexity table).
package profile

import "fmt"

// step is one piece of the step function: free processors are available
// from Time (inclusive) until the time of the next step (exclusive). The
// last step extends to infinity. Within a chunk the stored free count is
// relative to the chunk's pending delta: the effective value is
// step.free + chunk.add.
type step struct {
	time int64
	free int
}

// chunkMax is the split threshold: a chunk reaching this many steps is
// halved. It is a variable only so white-box tests can shrink it to force
// deep chunk structures on small inputs; production code never writes it.
var chunkMax = 64

// chunk is one bounded run of consecutive steps with its aggregates.
// first mirrors steps[0].time so the chunk directory can be binary-searched
// without touching the step storage; it is fixed at chunk creation, because
// boundary insertion always lands at index >= 1.
type chunk struct {
	first int64  // == steps[0].time
	min   int    // min of steps[].free (excluding add)
	max   int    // max of steps[].free (excluding add)
	add   int    // lazy delta: effective free of every step is free+add
	steps []step // non-empty; times strictly increasing
}

// recompute rebuilds the min/max aggregates from the raw step frees.
func (c *chunk) recompute() {
	mn, mx := c.steps[0].free, c.steps[0].free
	for _, s := range c.steps[1:] {
		if s.free < mn {
			mn = s.free
		}
		if s.free > mx {
			mx = s.free
		}
	}
	c.min, c.max = mn, mx
}

// Profile is a free-processor timeline. Create one with New; the zero
// value is not usable.
type Profile struct {
	capacity int
	chunks   []chunk
}

// New returns a profile for a machine with the given capacity where all
// processors are free from time start onwards. It panics if capacity < 1.
func New(capacity int, start int64) *Profile {
	p := &Profile{}
	p.Reset(capacity, start)
	return p
}

// Capacity returns the machine capacity the profile was built with.
func (p *Profile) Capacity() int { return p.capacity }

// Start returns the first instant covered by the profile.
func (p *Profile) Start() int64 { return p.chunks[0].first }

// FreeAt returns the number of free processors at time t. It panics when t
// precedes the profile start: the profile carries no information about the
// past, so asking for it is a scheduler bug (the same contract as
// EarliestFit and Alloc).
func (p *Profile) FreeAt(t int64) int {
	if t < p.Start() {
		panic(fmt.Sprintf("profile: time %d precedes profile start %d", t, p.Start()))
	}
	ci, si := p.locate(t)
	c := &p.chunks[ci]
	return c.steps[si].free + c.add
}

// locate returns the chunk and step index of the step covering time t (the
// last step whose time is <= t), clamping to the first step when t
// precedes the profile. Both levels are binary searches, so a lookup is
// O(log S) for S steps.
func (p *Profile) locate(t int64) (int, int) {
	ci := 0
	if len(p.chunks) > 1 && p.chunks[1].first <= t {
		lo, hi := 1, len(p.chunks)
		for lo < hi {
			mid := (lo + hi) / 2
			if p.chunks[mid].first <= t {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		ci = lo - 1
	}
	si := searchSteps(p.chunks[ci].steps, t)
	if si < 0 {
		si = 0
	}
	return ci, si
}

// EarliestFit returns the earliest time >= earliest at which width
// processors are free for the whole interval [t, t+duration). It panics if
// width exceeds the capacity, the arguments are non-positive, or earliest
// precedes the profile start — the profile carries no information about
// the past, so asking for it is a scheduler bug.
//
// The search walks candidate steps exactly like the linear scan did —
// candidates are steps with enough free processors, a candidate is
// accepted when no blocking step interrupts its window, and a rejected
// candidate resumes after its first blocker — but every advance skips
// whole chunks via the min/max aggregates, so each blocking interval costs
// O(B + S/B) instead of O(S).
func (p *Profile) EarliestFit(earliest int64, width int, duration int64) int64 {
	p.check(earliest, width, duration)
	_, _, start, _, _ := p.earliestFitPos(earliest, width, duration)
	return start
}

// earliestFitPos is EarliestFit returning also the positions of the steps
// covering the chosen start and its interval end, so Place can reuse the
// search instead of re-locating the interval for the reservation.
func (p *Profile) earliestFitPos(earliest int64, width int, duration int64) (ci, si int, start int64, eci, esi int) {
	ci, si = p.locate(earliest)
	ci, si, ok := p.nextFit(ci, si, width)
	for {
		if !ok {
			last := &p.chunks[len(p.chunks)-1]
			panic(fmt.Sprintf("profile: no fit for width %d after final step (free %d)",
				width, last.steps[len(last.steps)-1].free+last.add))
		}
		start = p.chunks[ci].steps[si].time
		if start < earliest {
			start = earliest
		}
		bci, bsi, blocked := p.firstBlocking(ci, si, start+duration, width)
		if !blocked {
			return ci, si, start, bci, bsi
		}
		// Resume at the first fitting step after the blocker (the linear
		// scan's i = j; i++ followed by skipping unfit steps).
		ci, si, ok = p.stepAfter(bci, bsi)
		if ok {
			ci, si, ok = p.nextFit(ci, si, width)
		}
	}
}

// nextFit returns the first position at or after (ci, si) whose effective
// free count is at least width, skipping whole chunks via the max
// aggregate.
func (p *Profile) nextFit(ci, si, width int) (int, int, bool) {
	c := &p.chunks[ci]
	if need := width - c.add; c.max >= need {
		steps := c.steps
		for ; si < len(steps); si++ {
			if steps[si].free >= need {
				return ci, si, true
			}
		}
	}
	for ci++; ci < len(p.chunks); ci++ {
		c := &p.chunks[ci]
		need := width - c.add
		if c.max < need {
			continue
		}
		steps := c.steps
		for si := range steps {
			if steps[si].free >= need {
				return ci, si, true
			}
		}
	}
	return 0, 0, false
}

// firstBlocking returns the first position strictly after (ci, si) whose
// step begins before end and has fewer than width processors free,
// skipping whole chunks via the min aggregate. When nothing blocks, the
// returned position is instead the step covering end (the last step with
// time <= end): the scan walks past end anyway, so the caller gets the
// interval's end boundary position for free.
func (p *Profile) firstBlocking(ci, si int, end int64, width int) (int, int, bool) {
	c := &p.chunks[ci]
	need := width - c.add
	steps := c.steps
	for j := si + 1; j < len(steps); j++ {
		if steps[j].time >= end {
			if steps[j].time == end {
				return ci, j, false
			}
			return ci, j - 1, false
		}
		if steps[j].free < need {
			return ci, j, true
		}
	}
	for ci++; ci < len(p.chunks); ci++ {
		c := &p.chunks[ci]
		if c.first >= end {
			if c.first == end {
				return ci, 0, false
			}
			return ci - 1, len(p.chunks[ci-1].steps) - 1, false
		}
		need := width - c.add
		steps := c.steps
		if c.min >= need {
			if steps[len(steps)-1].time < end {
				continue
			}
			return ci, searchSteps(steps, end), false
		}
		// c.first < end, so a scan hit at j has j >= 1 and j-1 in range.
		for j := range steps {
			if steps[j].time >= end {
				if steps[j].time == end {
					return ci, j, false
				}
				return ci, j - 1, false
			}
			if steps[j].free < need {
				return ci, j, true
			}
		}
	}
	return len(p.chunks) - 1, len(p.chunks[len(p.chunks)-1].steps) - 1, false
}

// stepAfter returns the position following (ci, si), or false at the final
// step.
func (p *Profile) stepAfter(ci, si int) (int, int, bool) {
	if si+1 < len(p.chunks[ci].steps) {
		return ci, si + 1, true
	}
	if ci+1 < len(p.chunks) {
		return ci + 1, 0, true
	}
	return 0, 0, false
}

// Alloc reserves width processors over [start, start+duration). The caller
// must have obtained start from EarliestFit (or otherwise guarantee the
// interval fits); Alloc panics when the reservation would drive any step
// negative, as that indicates a scheduler bug. It also panics when start
// precedes the profile start: the steps before the profile begin are not
// represented, so such a reservation would be silently clipped to
// [p.Start(), start+duration) — a shrunken reservation the caller never
// asked for.
//
// After the two boundary splits, interior chunks absorb the subtraction as
// one lazy delta each; only the two boundary chunks touch individual
// steps, so the cost is O(B + S/B) instead of O(S).
func (p *Profile) Alloc(start int64, width int, duration int64) {
	p.check(start, width, duration)
	end := start + duration
	ci, si := p.splitRange(start, end)
	p.subtractRange(ci, si, end, width)
}

// subtractRange subtracts width from every step in [position, end), where
// (ci, si) is the position of the step at the interval start and boundaries
// at both ends already exist. Interior chunks absorb the subtraction as one
// lazy delta each; only the boundary chunks touch individual steps.
func (p *Profile) subtractRange(ci, si int, end int64, width int) {
	for ci < len(p.chunks) {
		c := &p.chunks[ci]
		if si == 0 && c.steps[len(c.steps)-1].time < end {
			// Every step of the chunk lies inside [start, end): subtract
			// lazily. The raw aggregates stay valid because effective
			// values are read through the delta.
			c.add -= width
			if c.min+c.add < 0 {
				p.panicNegative(c, width)
			}
			ci++
			continue
		}
		// A boundary chunk: subtract from the steps inside [start, end)
		// only, keeping the aggregates exact without a full-chunk rescan.
		// Lowering values can only lower the chunk minimum, and it comes
		// from a modified step, so min updates in place; the maximum needs
		// a rescan only when the old maximum sat inside the range.
		touchedMax := false
		for ; si < len(c.steps) && c.steps[si].time < end; si++ {
			s := &c.steps[si]
			if s.free == c.max {
				touchedMax = true
			}
			s.free -= width
			if s.free+c.add < 0 {
				panic(fmt.Sprintf("profile: over-allocation at t=%d: %d free after placing width %d",
					s.time, s.free+c.add, width))
			}
			if s.free < c.min {
				c.min = s.free
			}
		}
		if touchedMax {
			mx := c.steps[0].free
			for _, s := range c.steps[1:] {
				if s.free > mx {
					mx = s.free
				}
			}
			c.max = mx
		}
		if si < len(c.steps) {
			return // the step at or past end lives here; nothing follows
		}
		ci, si = ci+1, 0
	}
}

// panicNegative reports the earliest step of a lazily-updated chunk that
// the subtraction drove negative, matching the per-step panic message.
func (p *Profile) panicNegative(c *chunk, width int) {
	for _, s := range c.steps {
		if s.free+c.add < 0 {
			panic(fmt.Sprintf("profile: over-allocation at t=%d: %d free after placing width %d",
				s.time, s.free+c.add, width))
		}
	}
	panic("profile: negative chunk minimum with no negative step")
}

// Place combines EarliestFit and Alloc: it reserves width processors for
// duration at the earliest feasible time >= earliest and returns the chosen
// start time. The fit search already walks to the chosen start, so Place
// threads that position through to the reservation instead of re-locating
// the interval from the root like an EarliestFit + Alloc pair would.
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
	ci, si, start, eci, esi := p.earliestFitPos(earliest, width, duration)
	end := start + duration
	// Boundary at end first, at the position the fit search already found;
	// doing it before the start boundary keeps (ci, si) valid except when
	// the insertion halves start's own chunk.
	if p.chunks[eci].steps[esi].time != end {
		nChunks := len(p.chunks)
		p.insertStep(eci, esi, end)
		if len(p.chunks) != nChunks && eci == ci {
			if half := len(p.chunks[ci].steps); si >= half {
				ci, si = ci+1, si-half
			}
		}
	}
	if p.chunks[ci].steps[si].time != start {
		ci, si = p.insertStep(ci, si, start)
	}
	p.subtractRange(ci, si, end, width)
	for depth = si; ci > 0; ci-- {
		depth += len(p.chunks[ci-1].steps)
	}
	return start, depth
}

// splitAt ensures a step boundary exists exactly at time t, so that a
// subsequent in-place modification of [start, end) only touches whole
// steps, and returns the position of the step at t (the first step when t
// is at or before the profile start, which needs no boundary). The
// insertion shifts at most one chunk's steps; a chunk reaching chunkMax
// steps is halved, so no operation ever memmoves the whole step sequence.
func (p *Profile) splitAt(t int64) (int, int) {
	if t <= p.Start() {
		return 0, 0
	}
	ci, si := p.locate(t)
	if p.chunks[ci].steps[si].time == t {
		return ci, si
	}
	return p.insertStep(ci, si, t)
}

// splitRange ensures step boundaries exist at both start and end and
// returns the position of the step at start. The directory search for end
// is reused for start when both times land in the same chunk — the common
// case for allocation-sized intervals — so most calls cost one two-level
// search plus one in-chunk search.
func (p *Profile) splitRange(start, end int64) (int, int) {
	ce, _ := p.splitAt(end)
	if start <= p.Start() {
		return 0, 0
	}
	var ci, si int
	if c := &p.chunks[ce]; c.first <= start {
		ci, si = ce, searchSteps(c.steps, start)
	} else {
		ci, si = p.locate(start)
	}
	if p.chunks[ci].steps[si].time == start {
		return ci, si
	}
	return p.insertStep(ci, si, start)
}

// searchSteps returns the index of the last step with time <= t; the
// caller guarantees steps[0].time <= t.
func searchSteps(steps []step, t int64) int {
	lo, hi := 0, len(steps)
	for lo < hi {
		mid := (lo + hi) / 2
		if steps[mid].time <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// insertStep inserts a boundary at time t directly after position (ci, si)
// — the step covering t — and returns the new step's position. The new
// step duplicates an existing free count, so the aggregates hold; a chunk
// reaching chunkMax steps is halved.
func (p *Profile) insertStep(ci, si int, t int64) (int, int) {
	c := &p.chunks[ci]
	c.steps = append(c.steps, step{})
	copy(c.steps[si+2:], c.steps[si+1:])
	c.steps[si+1] = step{time: t, free: c.steps[si].free}
	si++
	if len(c.steps) >= chunkMax {
		p.splitChunk(ci)
		if half := len(p.chunks[ci].steps); si >= half {
			return ci + 1, si - half
		}
	}
	return ci, si
}

// splitChunk halves chunk ci, inserting the upper half after it. Retired
// chunk storage parked beyond len(p.chunks) is revived for the new chunk,
// so pooled profiles split without allocating in the steady state.
func (p *Profile) splitChunk(ci int) {
	p.insertChunkAt(ci + 1)
	lo, hi := &p.chunks[ci], &p.chunks[ci+1]
	half := len(lo.steps) / 2
	hi.steps = append(hi.steps[:0], lo.steps[half:]...)
	hi.first = hi.steps[0].time
	hi.add = lo.add
	lo.steps = lo.steps[:half]
	lo.recompute()
	hi.recompute()
}

// insertChunkAt opens a slot at index at, reusing the step storage of a
// retired chunk parked between len and cap when one exists.
func (p *Profile) insertChunkAt(at int) {
	n := len(p.chunks)
	var spare []step
	if n < cap(p.chunks) {
		p.chunks = p.chunks[:n+1]
		spare = p.chunks[n].steps
	} else {
		p.chunks = append(p.chunks, chunk{})
	}
	copy(p.chunks[at+1:], p.chunks[at:n])
	p.chunks[at] = chunk{steps: spare[:0]}
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
// and free counts, mainly for tests and debugging output. The sequence is
// identical to the one the flat-array implementation would hold, including
// redundant equal-valued neighbours left behind by Alloc boundaries.
func (p *Profile) Steps() (times []int64, free []int) {
	n := 0
	for i := range p.chunks {
		n += len(p.chunks[i].steps)
	}
	times = make([]int64, 0, n)
	free = make([]int, 0, n)
	for i := range p.chunks {
		c := &p.chunks[i]
		for _, s := range c.steps {
			times = append(times, s.time)
			free = append(free, s.free+c.add)
		}
	}
	return times, free
}

// Clone returns an independent deep copy of the profile.
func (p *Profile) Clone() *Profile {
	c := &Profile{}
	p.CloneInto(c)
	return c
}

// CloneInto makes dst an independent deep copy of p, reusing dst's chunk
// and step storage when it is large enough. A zero-value dst is valid.
// This is the allocation-lean sibling of Clone: a pooled destination
// reaches a steady state where cloning allocates nothing.
func (p *Profile) CloneInto(dst *Profile) {
	dst.capacity = p.capacity
	dst.resizeChunks(len(p.chunks))
	for i := range p.chunks {
		src, d := &p.chunks[i], &dst.chunks[i]
		d.first, d.min, d.max, d.add = src.first, src.min, src.max, src.add
		d.steps = append(d.steps[:0], src.steps...)
	}
}

// resizeChunks sets len(p.chunks) to n, keeping retired chunks' step
// storage reachable between len and cap so later growth and chunk splits
// can revive it instead of allocating.
func (p *Profile) resizeChunks(n int) {
	if cap(p.chunks) >= n {
		p.chunks = p.chunks[:n]
		return
	}
	grown := make([]chunk, n)
	copy(grown, p.chunks[:cap(p.chunks)])
	p.chunks = grown
}

// Reset reinitialises p to a machine with the given capacity where all
// processors are free from start onwards, reusing the storage. A
// zero-value p is valid. It panics if capacity < 1, like New.
func (p *Profile) Reset(capacity int, start int64) {
	if capacity < 1 {
		panic(fmt.Sprintf("profile: capacity %d < 1", capacity))
	}
	p.capacity = capacity
	p.resizeChunks(1)
	c := &p.chunks[0]
	c.steps = append(c.steps[:0], step{time: start, free: capacity})
	c.first, c.min, c.max, c.add = start, capacity, capacity, 0
}

// EqualFrom reports whether p and o describe the same free-processor step
// function over [from, infinity) and share the same capacity. Redundant
// steps (adjacent steps with equal free counts, which Alloc can leave
// behind) do not affect the result: the comparison is semantic, not
// representational. Both profiles must cover from (i.e. from must not
// precede either profile's start).
func (p *Profile) EqualFrom(o *Profile, from int64) bool {
	if p.capacity != o.capacity {
		return false
	}
	if from < p.Start() || from < o.Start() {
		panic(fmt.Sprintf("profile: EqualFrom(%d) precedes a profile start (%d, %d)",
			from, p.Start(), o.Start()))
	}
	pc, ps := p.locate(from)
	oc, os := o.locate(from)
	for {
		if p.effFree(pc, ps) != o.effFree(oc, os) {
			return false
		}
		// Advance both to their next effective value change; every step
		// behind the locate position has time > from.
		npc, nps, iok := p.nextChange(pc, ps)
		noc, nos, jok := o.nextChange(oc, os)
		if iok != jok {
			return false
		}
		if !iok {
			return true
		}
		if p.chunks[npc].steps[nps].time != o.chunks[noc].steps[nos].time {
			return false
		}
		pc, ps, oc, os = npc, nps, noc, nos
	}
}

// effFree returns the effective free count at a position.
func (p *Profile) effFree(ci, si int) int {
	c := &p.chunks[ci]
	return c.steps[si].free + c.add
}

// nextChange returns the position of the first step after (ci, si) whose
// effective free count differs from that step's, skipping redundant
// equal-valued steps — and skipping whole uniform chunks via the min/max
// aggregates.
func (p *Profile) nextChange(ci, si int) (int, int, bool) {
	cur := p.effFree(ci, si)
	c := &p.chunks[ci]
	for k := si + 1; k < len(c.steps); k++ {
		if c.steps[k].free+c.add != cur {
			return ci, k, true
		}
	}
	for ci++; ci < len(p.chunks); ci++ {
		c := &p.chunks[ci]
		if c.min == c.max && c.min+c.add == cur {
			continue
		}
		for k := range c.steps {
			if c.steps[k].free+c.add != cur {
				return ci, k, true
			}
		}
	}
	return 0, 0, false
}

// CheckInvariants verifies the indexed representation against its own
// definition: chunks are non-empty, step times strictly increase across
// the whole sequence, every chunk's min/max aggregates equal the values
// recomputed from its raw steps, and every effective free count lies in
// [0, capacity]. Tests call it after mutation sequences; production code
// never needs to.
func (p *Profile) CheckInvariants() error {
	if p.capacity < 1 {
		return fmt.Errorf("profile: capacity %d < 1", p.capacity)
	}
	if len(p.chunks) == 0 {
		return fmt.Errorf("profile: no chunks")
	}
	first := true
	var prev int64
	for ci := range p.chunks {
		c := &p.chunks[ci]
		if len(c.steps) == 0 {
			return fmt.Errorf("profile: chunk %d is empty", ci)
		}
		if c.first != c.steps[0].time {
			return fmt.Errorf("profile: chunk %d caches first time %d, steps say %d",
				ci, c.first, c.steps[0].time)
		}
		mn, mx := c.steps[0].free, c.steps[0].free
		for si, s := range c.steps {
			if !first && s.time <= prev {
				return fmt.Errorf("profile: step time %d at chunk %d step %d not after %d",
					s.time, ci, si, prev)
			}
			first, prev = false, s.time
			if eff := s.free + c.add; eff < 0 || eff > p.capacity {
				return fmt.Errorf("profile: effective free %d at t=%d out of [0, %d]",
					eff, s.time, p.capacity)
			}
			if s.free < mn {
				mn = s.free
			}
			if s.free > mx {
				mx = s.free
			}
		}
		if mn != c.min || mx != c.max {
			return fmt.Errorf("profile: chunk %d aggregates (%d, %d) differ from recomputed (%d, %d)",
				ci, c.min, c.max, mn, mx)
		}
	}
	return nil
}

// String renders the profile compactly for debugging.
func (p *Profile) String() string {
	s := fmt.Sprintf("profile(cap=%d", p.capacity)
	for i := range p.chunks {
		c := &p.chunks[i]
		for _, st := range c.steps {
			s += fmt.Sprintf(" [%d:%d]", st.time, st.free+c.add)
		}
	}
	return s + ")"
}
