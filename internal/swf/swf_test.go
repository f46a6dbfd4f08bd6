package swf

import (
	"strings"
	"testing"
)

const sample = `; Computer: Test SP2
; MaxProcs: 64
; UnixStartTime: 0
1 0 5 100 4 -1 -1 4 200 -1 1 1 1 -1 1 -1 -1 -1
2 10 0 50 8 -1 -1 8 60 -1 1 2 1 -1 1 -1 -1 -1
3 20 0 -1 4 -1 -1 4 100 -1 5 1 1 -1 1 -1 -1 -1
4 30 0 10 -1 -1 -1 -1 20 -1 1 1 1 -1 1 -1 -1 -1
5 40 0 300 2 -1 -1 2 200 -1 1 1 1 -1 1 -1 -1 -1
`

func TestReadBasic(t *testing.T) {
	set, err := Read(strings.NewReader(sample), ReadOptions{Name: "test"})
	if err != nil {
		t.Fatal(err)
	}
	// Jobs 3 (run -1) and 4 (width -1 in both columns) are skipped.
	if len(set.Jobs) != 3 {
		t.Fatalf("accepted %d jobs, want 3", len(set.Jobs))
	}
	if set.Machine != 64 {
		t.Fatalf("machine = %d, want 64 from MaxProcs header", set.Machine)
	}
	j := set.Jobs[0]
	if j.Submit != 0 || j.Width != 4 || j.Runtime != 100 || j.Estimate != 200 {
		t.Fatalf("first job = %+v", j)
	}
	// IDs are re-assigned in submission order.
	for i, j := range set.Jobs {
		if int(j.ID) != i+1 {
			t.Fatalf("job %d has ID %d", i, j.ID)
		}
	}
}

func TestReadClampsEstimateUpToRuntime(t *testing.T) {
	set, err := Read(strings.NewReader(sample), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Job 5 ran 300 s against a 200 s request: planning semantics clamp
	// the estimate up.
	last := set.Jobs[len(set.Jobs)-1]
	if last.Runtime != 300 || last.Estimate != 300 {
		t.Fatalf("overrun job = %+v", last)
	}
}

func TestReadMaxJobs(t *testing.T) {
	set, err := Read(strings.NewReader(sample), ReadOptions{MaxJobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Jobs) != 1 {
		t.Fatalf("MaxJobs ignored: %d jobs", len(set.Jobs))
	}
}

func TestReadMachineOverride(t *testing.T) {
	set, err := Read(strings.NewReader(sample), ReadOptions{Machine: 128})
	if err != nil {
		t.Fatal(err)
	}
	if set.Machine != 128 {
		t.Fatalf("machine = %d, want 128", set.Machine)
	}
}

func TestReadMachineFallsBackToWidestJob(t *testing.T) {
	noHeader := "1 0 0 10 16 -1 -1 16 10 -1 1 1 1 -1 1 -1 -1 -1\n"
	set, err := Read(strings.NewReader(noHeader), ReadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if set.Machine != 16 {
		t.Fatalf("machine = %d, want 16", set.Machine)
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"short line":   "1 2 3\n",
		"bad number":   "x 0 0 10 1 -1 -1 1 10 -1 1 1 1 -1 1 -1 -1 -1\n",
		"no jobs":      "; MaxProcs: 4\n",
		"only skipped": "1 0 0 -1 1 -1 -1 1 10 -1 5 1 1 -1 1 -1 -1 -1\n",
	}
	for name, input := range cases {
		if _, err := Read(strings.NewReader(input), ReadOptions{}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestHeaderInt(t *testing.T) {
	cases := []struct {
		line string
		want int
		ok   bool
	}{
		{"; MaxProcs: 430", 430, true},
		{";MaxProcs: 100", 100, true},
		{"; MaxProcs: 128 nodes", 128, true},
		{"; MaxNodes: 64", 0, false},
		{"; MaxProcs: many", 0, false},
	}
	for _, c := range cases {
		got, ok := headerInt(c.line, "MaxProcs")
		if got != c.want || ok != c.ok {
			t.Errorf("headerInt(%q) = %d, %v", c.line, got, ok)
		}
	}
}
