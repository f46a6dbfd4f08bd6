package profile

import (
	"testing"

	"dynp/internal/profile/profiletest"
)

// refModel is a brute-force per-second free-array model of a machine: the
// differential oracle for FuzzProfileVsReference. It covers a bounded
// horizon; the fuzz driver never reserves past it.
type refModel struct {
	capacity int
	start    int64
	free     []int // free[i] = free processors at start+i
}

func newRefModel(capacity int, start int64, horizon int) *refModel {
	m := &refModel{capacity: capacity, start: start, free: make([]int, horizon)}
	for i := range m.free {
		m.free[i] = capacity
	}
	return m
}

func (m *refModel) freeAt(t int64) int {
	i := t - m.start
	if i < 0 {
		i = 0
	}
	if int(i) >= len(m.free) {
		return m.free[len(m.free)-1]
	}
	return m.free[i]
}

func (m *refModel) fits(start int64, width int, dur int64) bool {
	for t := start; t < start+dur; t++ {
		if m.freeAt(t) < width {
			return false
		}
	}
	return true
}

func (m *refModel) earliest(earliest int64, width int, dur int64) (int64, bool) {
	// Never scan past the horizon: the driver bounds all reservations so
	// the tail of the free array is a fixed point.
	for t := earliest; t <= m.start+int64(len(m.free)); t++ {
		if m.fits(t, width, dur) {
			return t, true
		}
	}
	return 0, false
}

func (m *refModel) alloc(start int64, width int, dur int64) {
	for t := start; t < start+dur; t++ {
		if i := t - m.start; i >= 0 && int(i) < len(m.free) {
			m.free[i] -= width
		}
	}
}

// reservation is one placement the fuzz driver may later release.
type reservation struct {
	start int64
	width int
	end   int64
}

// FuzzProfileVsReference drives the Profile, the naive profiletest.Linear
// and the per-second reference model through the same operation sequence
// and requires identical EarliestFit and FitsAt results, identical FreeAt
// values, and a step sequence identical element for element between the
// Profile and Linear — plus CloneInto/Reset equivalence with Clone/New
// along the way. The fuzz input is decoded as (op, width, duration, earliest) bytes; the
// op byte also says whether the Profile first moves to other storage — a
// clone into a zero value, which must grow from nothing, or into a dirty
// reused destination holding stale steps in alternately more and less
// storage than it needs — and carries on there, as the planner's reused
// profiles do. Its bits 4 and 5 both set turn the operation into an
// Advance (by nothing, to a step boundary a few steps on, or by some
// seconds) or into a Release of what is left of an earlier placement,
// whole or a suffix of it, as the planner's base profile moves from one
// scheduling event to the next.
func FuzzProfileVsReference(f *testing.F) {
	f.Add([]byte{0x00}, uint8(8), uint8(3))
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9a}, uint8(16), uint8(0))
	f.Add([]byte{0xff, 0x00, 0xff, 0x00}, uint8(3), uint8(50))
	// Place on a zero-value clone (0x08), then hop through the larger and
	// the smaller dirty destination (0x0c) with placements in between.
	f.Add([]byte{
		0x08, 5, 9, 0, 0x08, 2, 30, 7, 0x0c, 3, 20, 4, 0x00, 1, 31, 10,
		0x0c, 7, 3, 2, 0x01, 4, 12, 40, 0x0c, 2, 8, 1, 0x0d, 6, 5, 90,
	}, uint8(16), uint8(5))
	// Place four reservations, release one whole and one's suffix, and
	// advance by nothing, to the next boundary, by seconds and past
	// several boundaries, with a move to dirty storage (0x3c) between.
	f.Add([]byte{
		0x00, 3, 9, 0, 0x00, 5, 20, 0, 0x00, 2, 14, 3, 0x00, 4, 30, 6,
		0x31, 1, 0, 0, 0x30, 0, 0, 0, 0x30, 1, 0, 0, 0x31, 0, 0, 5,
		0x3c, 3, 0, 7, 0x31, 2, 0, 2, 0x30, 2, 0, 0, 0x00, 6, 8, 0,
	}, uint8(8), uint8(10))
	f.Fuzz(func(t *testing.T, ops []byte, cap8 uint8, start8 uint8) {
		capacity := int(cap8%32) + 1
		start := int64(start8)
		// Bound the interesting region so the oracle's linear scans stay
		// cheap: reservations live in [start, start+horizon/2), scans may
		// run to the horizon.
		const horizon = 512
		p := New(capacity, start)
		lin := profiletest.NewLinear(capacity, start)
		ref := newRefModel(capacity, start, horizon)

		// Dirty destinations: one with far more storage than these small
		// profiles need, one with less. A move swaps p with one of them.
		larger, smaller := New(64, 0), New(3, 0)
		for k := int64(0); k < 40; k++ {
			larger.Place(k, 1+int(k%7), 1+k%13)
		}
		smaller.Alloc(1, 2, 7)
		dirty := [2]*Profile{larger, smaller}
		turn := 0
		var live []reservation

		if len(ops) > 64 {
			ops = ops[:64]
		}
		for i := 0; i+3 < len(ops); i += 4 {
			switch (ops[i] >> 2) % 4 {
			case 2:
				var zero Profile
				p.CloneInto(&zero)
				p = &zero
			case 3:
				dst := dirty[turn]
				p.CloneInto(dst)
				dirty[turn], p = p, dst
				turn ^= 1
			}
			width := int(ops[i+1])%capacity + 1
			dur := int64(ops[i+2]%32) + 1
			earliest := max(start+int64(ops[i+3])%(horizon/2), p.Start())
			op := ops[i] % 4
			if ops[i]>>4&3 == 3 {
				op = 4 + ops[i]%2
			}
			switch op {
			case 4: // Advance
				to := p.Start()
				times, _ := p.Steps()
				switch k := int(ops[i+1] % 4); k {
				case 1, 2:
					to = times[min(k, len(times)-1)]
				case 3:
					to += int64(ops[i+3] % 64)
				}
				to = min(to, start+horizon/2)
				p.Advance(to)
				lin.Advance(to)
				if got := p.Start(); got != to {
					t.Fatalf("op %d: Advance(%d) left the start at %d", i, to, got)
				}
			case 5: // Release what is left of a live placement, or its suffix
				from := p.Start()
				kept := live[:0]
				for _, r := range live {
					if r.end > from {
						kept = append(kept, r)
					}
				}
				live = kept
				if len(live) == 0 {
					continue
				}
				k := int(ops[i+1]) % len(live)
				r := live[k]
				live = append(live[:k], live[k+1:]...)
				lo := max(r.start, from)
				if ops[i+3]%2 == 1 {
					lo += int64(ops[i+3]) % (r.end - lo)
				}
				p.Release(lo, r.width, r.end-lo)
				lin.Release(lo, r.width, r.end-lo)
				ref.alloc(lo, -r.width, r.end-lo)
				if lo > r.start {
					live = append(live, reservation{r.start, r.width, lo})
				}
			case 0, 1: // Place
				want, ok := ref.earliest(earliest, width, dur)
				if !ok || want+dur > start+horizon/2+int64(ops[i+2]%32)+1 {
					// Would spill past the modelled region; skip to keep
					// the oracle exact. (The profile could answer, but the
					// array model could not check it.)
					continue
				}
				got := p.Place(earliest, width, dur)
				if got != want {
					t.Fatalf("op %d: Place(%d,%d,%d) = %d, oracle %d", i, earliest, width, dur, got, want)
				}
				if lgot := lin.Place(earliest, width, dur); lgot != want {
					t.Fatalf("op %d: linear Place(%d,%d,%d) = %d, oracle %d", i, earliest, width, dur, lgot, want)
				}
				ref.alloc(want, width, dur)
				live = append(live, reservation{want, width, want + dur})
			case 2: // EarliestFit without committing
				want, ok := ref.earliest(earliest, width, dur)
				if !ok {
					continue
				}
				if got := p.EarliestFit(earliest, width, dur); got != want {
					t.Fatalf("op %d: EarliestFit(%d,%d,%d) = %d, oracle %d", i, earliest, width, dur, got, want)
				}
				if lgot := lin.EarliestFit(earliest, width, dur); lgot != want {
					t.Fatalf("op %d: linear EarliestFit(%d,%d,%d) = %d, oracle %d", i, earliest, width, dur, lgot, want)
				}
				// FitsAt asks the same question at one instant.
				fits := ref.fits(earliest, width, dur)
				if got := p.FitsAt(earliest, width, dur); got != fits {
					t.Fatalf("op %d: FitsAt(%d,%d,%d) = %v, oracle %v", i, earliest, width, dur, got, fits)
				}
				if lgot := lin.FitsAt(earliest, width, dur); lgot != fits {
					t.Fatalf("op %d: linear FitsAt(%d,%d,%d) = %v, oracle %v", i, earliest, width, dur, lgot, fits)
				}
			case 3: // FreeAt sweep at the probe instant
				if got, want := p.FreeAt(earliest), ref.freeAt(earliest); got != want {
					t.Fatalf("op %d: FreeAt(%d) = %d, oracle %d", i, earliest, got, want)
				}
				if lgot, want := lin.FreeAt(earliest), ref.freeAt(earliest); lgot != want {
					t.Fatalf("op %d: linear FreeAt(%d) = %d, oracle %d", i, earliest, lgot, want)
				}
			}
			// The two representations must agree step for step — same
			// boundaries, same free counts, redundant steps included — and
			// every boundary must match the per-second model.
			if err := sameSteps(p, lin); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
			times, free := p.Steps()
			for k, tm := range times {
				if tm < start+horizon && free[k] != ref.freeAt(tm) {
					t.Fatalf("op %d: step at %d has free %d, oracle %d", i, tm, free[k], ref.freeAt(tm))
				}
			}
			if err := p.CheckInvariants(); err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}

		// CloneInto into a dirty destination must equal Clone, and Reset
		// must equal New: same capacity, same steps (String renders both).
		dst := dirty[turn]
		p.CloneInto(dst)
		if want := p.Clone(); dst.String() != want.String() {
			t.Fatalf("CloneInto != Clone: %v vs %v", dst, want)
		}
		dst.Reset(capacity, start)
		if fresh := New(capacity, start); dst.String() != fresh.String() {
			t.Fatalf("Reset != New: %v vs %v", dst, fresh)
		}
	})
}
