package plan

// Dominance-bounded search (DESIGN.md §11). Within one build the profile
// only ever gets fuller, so every placement is a reusable proof: a job of
// width w and estimate d whose earliest fit was s shows that no window of
// length d with w processors free begins in [now, s) — and none will for
// the rest of the build. A later job at least as wide and at least as long
// would need such a window inside its own, so it cannot start before s
// either, and its search may begin at s instead of re-walking the
// saturated head of the profile from now. A search begun at a proven lower
// bound returns the same earliest fit, so schedules are byte-identical
// with and without the table; any subset of the witnesses is sound, so
// eviction needs no care.

const (
	// witnessSlots bounds the table, which lives on BuildInto's stack (and
	// in a fork, copied, when a later order resumes the build).
	// Every job pays a consult of all slots and every recorded placement a
	// pass over them, whether or not a bound ever applies (under LJF almost
	// none can: each job is shorter than those before it). Measured on
	// BenchmarkBuildSaturated at queue 340, one build per candidate policy
	// summed, best of eighteen runs, re-taken on the flat profile kernel
	// (DESIGN.md §11): 2 slots 176 us, 4 slots 160 us, 8 slots 208 us — two
	// lose SJF's bounds, eight cost FCFS and LJF more than they gain SJF.
	witnessSlots = 4
	// witnessMinDepth gates recording on the profile itself: a placement is
	// kept as a witness only when it landed at least this many steps into
	// the profile, i.e. when a later search from now would have that many
	// steps to cross. Re-measured on the flat profile kernel, median of
	// three benchmark runs each: on sim-light (LANL: 11-step profiles,
	// queues of 7, so no bound ever pays) ungated bookkeeping reads 128k
	// jobs/s and a gate of 16 123k against 142k at 32 and at 64 — the table
	// stays empty on short profiles, and consulting an empty table is one
	// compare — while sim-heavy (67-step profiles on average, its time in
	// events with well over a hundred) reads 13.4k at 16, 13.9k at 32 and
	// 12.1k at 64, where the bounds it lives on stop being recorded.
	witnessMinDepth = 32
)

// witness is one proof: nothing of at least this width and estimate fits
// before start in the profile being built.
type witness struct {
	width    int
	estimate int64
	start    int64
}

// witnesses is the fixed-size table of one build. The zero value is empty.
type witnesses struct {
	n int
	w [witnessSlots]witness
}

// bound returns the latest proven lower bound on the start of a job with
// the given shape, or now when no witness applies.
func (t *witnesses) bound(now int64, width int, estimate int64) int64 {
	from := now
	for i := 0; i < t.n; i++ {
		if w := &t.w[i]; w.width <= width && w.estimate <= estimate && w.start > from {
			from = w.start
		}
	}
	return from
}

// record adds the proof that a job of this shape fits no earlier than
// start. The caller only records a start later than the bound it searched
// from, so no existing witness already implies the new one. Witnesses the
// new one makes redundant — those applying to no job it does not, with no
// later start — are dropped; if the table is still full, the weakest bound
// (the earliest start) makes room.
func (t *witnesses) record(width int, estimate, start int64) {
	n := 0
	for i := 0; i < t.n; i++ {
		if w := t.w[i]; w.width < width || w.estimate < estimate || w.start > start {
			t.w[n] = w
			n++
		}
	}
	if n == witnessSlots {
		weakest := 0
		for i := 1; i < n; i++ {
			if t.w[i].start < t.w[weakest].start {
				weakest = i
			}
		}
		n--
		t.w[weakest] = t.w[n]
	}
	t.w[n] = witness{width: width, estimate: estimate, start: start}
	t.n = n + 1
}
