package core

import (
	"slices"
	"strings"
	"testing"

	"dynp/internal/policy"
)

func TestCaseOfMatchesTable1Rows(t *testing.T) {
	// The classifier partitions the overlapping paper cases; expected
	// labels for each Table 1 row under that partition:
	expect := map[string]string{
		"1": "1", "2": "2", "3": "3",
		"4a": "4a", "4b": "4b/5", "4c": "4c", "5": "4b/5",
		"6a": "6a", "6b": "6b", "6c": "6c",
		"7":  "7",
		"8a": "8a", "8b": "8b", "8c": "8c",
		"9":   "9",
		"10a": "10a", "10b": "10b", "10c": "10c",
	}
	for _, row := range Table1() {
		olds := candidates
		if row.OldSpecific {
			olds = []policy.Policy{row.Old}
		}
		for _, old := range olds {
			got := CaseOf(old, row.F, row.S, row.L)
			want := expect[row.Case]
			// Rows without old-specific subcases classify into the
			// old-dependent label only when ties involve the old
			// policy; case 1 splits by old.
			if row.Case == "1" {
				want = "1"
			}
			if got != want {
				t.Errorf("CaseOf(%v, %v,%v,%v) = %q, want %q (row %s)",
					old, row.F, row.S, row.L, got, want, row.Case)
			}
		}
	}
}

func TestCaseOfPartitionIsTotal(t *testing.T) {
	// Every value triple and old policy must map to exactly one known
	// label.
	for f := 1; f <= 3; f++ {
		for s := 1; s <= 3; s++ {
			for l := 1; l <= 3; l++ {
				for _, old := range candidates {
					label := CaseOf(old, float64(f), float64(s), float64(l))
					if !slices.Contains(caseLabels[:], label) {
						t.Fatalf("unknown label %q for (%d,%d,%d) old=%v", label, f, s, l, old)
					}
				}
			}
		}
	}
}

func TestClassifyTrace(t *testing.T) {
	trace := []Decision{
		// Case 1 with old = SJF: the simple decider would pick FCFS,
		// the correct decision keeps SJF — wrong.
		{Old: policy.SJF, Values: []float64{1, 1, 1}},
		{Old: policy.SJF, Values: []float64{3, 1, 2}}, // case 2
		{Old: policy.SJF, Values: []float64{3, 1, 2}}, // case 2
		{Old: policy.LJF, Values: []float64{1, 2, 1}}, // case 8c (simple wrong)
		{Old: policy.SJF, Values: []float64{1, 2}},    // malformed: skipped
	}
	cases := ClassifyTrace(trace)
	if len(cases) != 3 {
		t.Fatalf("cases = %+v", cases)
	}
	if cases[0].Case != "1" || !cases[0].SimpleWrong {
		t.Errorf("first = %+v", cases[0])
	}
	if cases[1].Case != "2" || cases[1].Count != 2 || cases[1].SimpleWrong {
		t.Errorf("second = %+v", cases[1])
	}
	if cases[2].Case != "8c" || !cases[2].SimpleWrong {
		t.Errorf("third = %+v", cases[2])
	}
}

func TestClassifyTraceOrdering(t *testing.T) {
	trace := []Decision{
		{Old: policy.LJF, Values: []float64{2, 1, 1}},  // 10c
		{Old: policy.FCFS, Values: []float64{1, 2, 3}}, // 3
		{Old: policy.FCFS, Values: []float64{1, 1, 1}}, // 1
	}
	cases := ClassifyTrace(trace)
	var labels []string
	for _, c := range cases {
		labels = append(labels, c.Case)
	}
	if strings.Join(labels, ",") != "1,3,10c" {
		t.Fatalf("order = %v", labels)
	}
}

func TestFormatCases(t *testing.T) {
	lines := FormatCases([]CaseCount{{Case: "1", Count: 5, SimpleWrong: true}}, 10)
	if len(lines) != 1 || !strings.Contains(lines[0], "50.0%") ||
		!strings.Contains(lines[0], "wrongly") {
		t.Fatalf("lines = %v", lines)
	}
}
