package swf_test

import (
	"bytes"
	"testing"

	"dynp/internal/rng"
	"dynp/internal/swf"
	"dynp/internal/workload"
)

// TestRoundTrip writes a generated set and reads it back. It lives in the
// external test package because package workload imports swf.
func TestRoundTrip(t *testing.T) {
	set, err := workload.KTH.Generate(500, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := swf.Write(&buf, set); err != nil {
		t.Fatal(err)
	}
	got, err := swf.Read(bytes.NewReader(buf.Bytes()), swf.ReadOptions{Name: set.Name, Machine: set.Machine})
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Jobs) != len(set.Jobs) {
		t.Fatalf("round trip lost jobs: %d vs %d", len(got.Jobs), len(set.Jobs))
	}
	for i := range set.Jobs {
		a, b := set.Jobs[i], got.Jobs[i]
		if a.Submit != b.Submit || a.Width != b.Width ||
			a.Estimate != b.Estimate || a.Runtime != b.Runtime {
			t.Fatalf("job %d: %+v != %+v", i, a, b)
		}
	}
	if got.Machine != set.Machine {
		t.Fatalf("machine %d != %d", got.Machine, set.Machine)
	}
}
