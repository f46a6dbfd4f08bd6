package core

import (
	"fmt"
	"slices"
	"sort"

	"dynp/internal/policy"
)

// This file classifies live self-tuning decisions into the cases of the
// paper's Table 1, connecting the static decision analysis to observed
// scheduler behaviour: a decision trace can be summarised as "how often
// did each Table 1 case actually occur, and how often would the simple
// decider have decided wrongly?".

// CaseOf returns the Table 1 case label for a value triple and the old
// policy. The paper's cases overlap (case 5 equals case 4b, case 2
// includes the values of case 7, ...); CaseOf returns the most specific
// label of the partition:
//
//	"1"              all three equal
//	"2", "7"         SJF unique minimum (7 when FCFS = LJF)
//	"3", "9"         FCFS unique minimum (9 when SJF = LJF)
//	"4a", "4b/5", "4c"  LJF unique minimum, split by FCFS vs SJF
//	"6a".."6c"       FCFS = SJF < LJF, split by the old policy
//	"8a".."8c"       FCFS = LJF < SJF, split by the old policy
//	"10a".."10c"     SJF = LJF < FCFS, split by the old policy
func CaseOf(old policy.Policy, f, s, l float64) string {
	return caseLabels[caseIndex(old, f, s, l)]
}

// caseLabels lists the Table 1 case labels in the paper's order, the
// order a CaseCounts is indexed in.
var caseLabels = [...]string{
	"1", "2", "3", "4a", "4b/5", "4c", "6a", "6b", "6c", "7",
	"8a", "8b", "8c", "9", "10a", "10b", "10c",
}

// caseIndex is CaseOf as an index into caseLabels; it does not allocate.
func caseIndex(old policy.Policy, f, s, l float64) int {
	fMin := approxEqual(f, min3(f, s, l))
	sMin := approxEqual(s, min3(f, s, l))
	lMin := approxEqual(l, min3(f, s, l))
	sub := func() int {
		switch old {
		case policy.FCFS:
			return 0
		case policy.SJF:
			return 1
		default:
			return 2
		}
	}
	switch {
	case fMin && sMin && lMin:
		return 0 // 1
	case sMin && !fMin && !lMin:
		if approxEqual(f, l) {
			return 9 // 7
		}
		return 1 // 2
	case fMin && !sMin && !lMin:
		if approxEqual(s, l) {
			return 13 // 9
		}
		return 2 // 3
	case lMin && !fMin && !sMin:
		switch {
		case approxEqual(f, s):
			return 4 // 4b/5
		case f < s:
			return 3 // 4a
		default:
			return 5 // 4c
		}
	case fMin && sMin:
		return 6 + sub() // 6a..6c
	case fMin && lMin:
		return 10 + sub() // 8a..8c
	default: // sMin && lMin
		return 14 + sub() // 10a..10c
	}
}

// CaseCounts counts decisions by Table 1 case (CaseOf), indexed in the
// table's order.
type CaseCounts [len(caseLabels)]int

// Map returns the non-zero counts keyed by case label, nil when there
// are none.
func (c *CaseCounts) Map() map[string]int {
	var m map[string]int
	for i, n := range c {
		if n != 0 {
			if m == nil {
				m = make(map[string]int)
			}
			m[caseLabels[i]] = n
		}
	}
	return m
}

// setMap is Map's inverse; it refuses a label that is no Table 1 case.
func (c *CaseCounts) setMap(m map[string]int) error {
	*c = CaseCounts{}
	for label, n := range m {
		i := slices.Index(caseLabels[:], label)
		if i < 0 {
			return fmt.Errorf("core: %q is no Table 1 case", label)
		}
		c[i] = n
	}
	return nil
}

func min3(a, b, c float64) float64 {
	m := a
	if b < m {
		m = b
	}
	if c < m {
		m = c
	}
	return m
}

// CaseCount is one row of a decision-case histogram.
type CaseCount struct {
	Case  string
	Count int
	// SimpleWrong reports whether the simple decider decides this case
	// differently from the correct (advanced) decision.
	SimpleWrong bool
}

// ClassifyTrace builds a Table 1 case histogram from a decision trace
// (recorded with SelfTuner.EnableTrace). Decisions whose candidate set is
// not the paper's three policies are skipped.
func ClassifyTrace(trace []Decision) []CaseCount {
	counts := map[string]int{}
	wrong := map[string]bool{}
	for _, d := range trace {
		if len(d.Values) != 3 {
			continue
		}
		f, s, l := d.Values[0], d.Values[1], d.Values[2]
		label := CaseOf(d.Old, f, s, l)
		counts[label]++
		if ReferenceSimple(f, s, l) != ReferenceCorrect(d.Old, f, s, l) {
			wrong[label] = true
		}
	}
	out := make([]CaseCount, 0, len(counts))
	for label, n := range counts {
		out = append(out, CaseCount{Case: label, Count: n, SimpleWrong: wrong[label]})
	}
	sort.Slice(out, func(i, j int) bool {
		return slices.Index(caseLabels[:], out[i].Case) < slices.Index(caseLabels[:], out[j].Case)
	})
	return out
}

// FormatCases renders a case histogram as text lines.
func FormatCases(cases []CaseCount, total int) []string {
	var lines []string
	for _, c := range cases {
		mark := ""
		if c.SimpleWrong {
			mark = "  (simple decider decides wrongly here)"
		}
		lines = append(lines, fmt.Sprintf("case %-5s %7d  (%5.1f%%)%s",
			c.Case, c.Count, 100*float64(c.Count)/float64(total), mark))
	}
	return lines
}
