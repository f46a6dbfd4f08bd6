package workload

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dynp/internal/rng"
	"dynp/internal/swf"
)

// writeSWF writes n jobs generated from KTH to an SWF file and returns
// its path.
func writeSWF(t *testing.T, n int) string {
	t.Helper()
	set, err := KTH.Generate(n, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "kth.swf")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := swf.Write(f, set); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadSWFOverridesModel(t *testing.T) {
	path := writeSWF(t, 40)
	set, err := Load(path, "CTC", 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if set.Name != path || len(set.Jobs) != 40 || set.Machine != KTH.Machine {
		t.Fatalf("got %q with %d jobs on %d processors, want %q with 40 jobs on %d",
			set.Name, len(set.Jobs), set.Machine, path, KTH.Machine)
	}
	// The model name is not looked at when a file is given.
	if _, err := Load(path, "no-such-trace", 0, 1); err != nil {
		t.Fatalf("SWF load consulted the model: %v", err)
	}
}

func TestLoadSWFMaxJobs(t *testing.T) {
	path := writeSWF(t, 40)
	set, err := Load(path, "", 25, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Jobs) != 25 {
		t.Fatalf("kept %d jobs, want 25", len(set.Jobs))
	}
}

func TestLoadUnknownModel(t *testing.T) {
	if _, err := Load("", "no-such-trace", 10, 1); err == nil {
		t.Fatal("unknown model loaded without error")
	}
}

func TestLoadMissingSWF(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.swf"), "KTH", 10, 1); err == nil {
		t.Fatal("missing SWF file loaded without error")
	}
}

func TestLoadGeneratesFromModel(t *testing.T) {
	got, err := Load("", "SDSC", 300, 9)
	if err != nil {
		t.Fatal(err)
	}
	want, err := SDSC.Generate(300, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("Load differs from Model.Generate on the same stream")
	}
}
