package workload

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"runtime"
	"testing"

	"dynp/internal/rng"
)

func TestModelsValidate(t *testing.T) {
	for _, m := range Models() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, want := range []string{"CTC", "KTH", "LANL", "SDSC"} {
		m, err := ByName(want)
		if err != nil || m.Name != want {
			t.Errorf("ByName(%q) = %v, %v", want, m.Name, err)
		}
	}
	if _, err := ByName("NOPE"); err == nil {
		t.Error("ByName accepted junk")
	}
}

func TestValidateRejectsBadModels(t *testing.T) {
	mutations := []func(*Model){
		func(m *Model) { m.Machine = 0 },
		func(m *Model) { m.WidthMin = 0 },
		func(m *Model) { m.WidthMax = m.Machine + 1 },
		func(m *Model) { m.WidthAvg = float64(m.WidthMax) + 1 },
		func(m *Model) { m.ActAvg = 0 },
		func(m *Model) { m.Overest = 0.5 },
		func(m *Model) { m.IATAvg = 0 },
	}
	for i, mutate := range mutations {
		m := CTC
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGenerateProducesValidSets(t *testing.T) {
	for _, m := range Models() {
		set, err := m.Generate(2000, rng.New(1))
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if err := set.Validate(); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if len(set.Jobs) != 2000 {
			t.Fatalf("%s: %d jobs", m.Name, len(set.Jobs))
		}
		if set.Machine != m.Machine {
			t.Fatalf("%s: machine %d", m.Name, set.Machine)
		}
	}
}

// TestTable2Calibration checks the generated workloads against the paper's
// Table 2 statistics: the calibrated means must land within a modest
// tolerance of the published values, and hard bounds must hold exactly.
func TestTable2Calibration(t *testing.T) {
	const n = 20000
	for _, m := range Models() {
		set, err := m.Generate(n, rng.New(7))
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		c := Characterize(set)

		within := func(name string, got, want, tol float64) {
			if want == 0 {
				return
			}
			if math.Abs(got-want)/want > tol {
				t.Errorf("%s: %s = %.2f, want %.2f (±%.0f%%)",
					m.Name, name, got, want, tol*100)
			}
		}
		within("width mean", c.Width.Mean, m.WidthAvg, 0.15)
		within("actual runtime mean", c.Act.Mean, m.ActAvg, 0.10)
		within("estimate mean", c.Est.Mean, m.EstAvg, 0.15)
		within("overestimation factor", c.Overest, m.Overest, 0.15)
		within("interarrival mean", c.IAT.Mean, m.IATAvg, 0.10)

		if c.Width.Min < float64(m.WidthMin) || c.Width.Max > float64(m.WidthMax) {
			t.Errorf("%s: width range [%v,%v] outside [%d,%d]",
				m.Name, c.Width.Min, c.Width.Max, m.WidthMin, m.WidthMax)
		}
		if c.Act.Max > float64(m.ActMax) {
			t.Errorf("%s: actual runtime max %v above %d", m.Name, c.Act.Max, m.ActMax)
		}
		if c.Est.Max > float64(m.EstMax) || c.Est.Min < float64(m.EstMin) {
			t.Errorf("%s: estimate range [%v,%v] outside [%d,%d]",
				m.Name, c.Est.Min, c.Est.Max, m.EstMin, m.EstMax)
		}
	}
}

func TestEstimatesNeverBelowRuntime(t *testing.T) {
	for _, m := range Models() {
		set, err := m.Generate(5000, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range set.Jobs {
			if j.Estimate < j.Runtime {
				t.Fatalf("%s: %s has estimate below runtime", m.Name, j)
			}
		}
	}
}

func TestLANLWidthsArePowersOfTwo(t *testing.T) {
	set, err := LANL.Generate(5000, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range set.Jobs {
		if j.Width < 32 || j.Width > 1024 || j.Width&(j.Width-1) != 0 {
			t.Fatalf("LANL width %d not a CM-5 partition size", j.Width)
		}
	}
}

func TestGenerateSetsIndependentAndReproducible(t *testing.T) {
	a, err := CTC.GenerateSets(3, 500, 42)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CTC.GenerateSets(3, 500, 42)
	if err != nil {
		t.Fatal(err)
	}
	for k := range a {
		for i := range a[k].Jobs {
			x, y := a[k].Jobs[i], b[k].Jobs[i]
			if *x != *y {
				t.Fatalf("set %d job %d not reproducible", k, i)
			}
		}
	}
	// Different sets differ.
	same := 0
	for i := range a[0].Jobs {
		if a[0].Jobs[i].Estimate == a[1].Jobs[i].Estimate {
			same++
		}
	}
	if same == len(a[0].Jobs) {
		t.Fatal("sets 0 and 1 are identical")
	}
	// Different seeds differ.
	c, err := CTC.GenerateSets(1, 500, 43)
	if err != nil {
		t.Fatal(err)
	}
	same = 0
	for i := range a[0].Jobs {
		if a[0].Jobs[i].Estimate == c[0].Jobs[i].Estimate {
			same++
		}
	}
	if same == len(a[0].Jobs) {
		t.Fatal("different seeds produced identical sets")
	}
}

func TestTracesDiffer(t *testing.T) {
	// The four models must produce distinguishable workloads (different
	// mean widths and runtimes).
	r := rng.New(11)
	var widths, runs []float64
	for _, m := range Models() {
		set, err := m.Generate(3000, r.Derive(hashName(m.Name)))
		if err != nil {
			t.Fatal(err)
		}
		c := Characterize(set)
		widths = append(widths, c.Width.Mean)
		runs = append(runs, c.Act.Mean)
	}
	for i := 0; i < len(widths); i++ {
		for k := i + 1; k < len(widths); k++ {
			if math.Abs(widths[i]-widths[k]) < 0.5 && math.Abs(runs[i]-runs[k]) < 100 {
				t.Fatalf("traces %d and %d statistically indistinguishable", i, k)
			}
		}
	}
}

// TestOfferedLoadCalibration checks that the generated mean job area hits
// the offered-load target derived from the paper's utilization at
// shrinking factor 1.0, for every trace.
func TestOfferedLoadCalibration(t *testing.T) {
	const n = 100000
	for _, m := range Models() {
		set, err := m.Generate(n, rng.New(21))
		if err != nil {
			t.Fatal(err)
		}
		var area float64
		for _, j := range set.Jobs {
			area += float64(j.Area())
		}
		load := (area / n) / (float64(m.Machine) * m.IATAvg)
		if math.Abs(load-m.LoadTarget)/m.LoadTarget > 0.10 {
			t.Errorf("%s: offered load %.3f, want %.3f", m.Name, load, m.LoadTarget)
		}
	}
}

// TestWidthRuntimeCorrelation verifies that LANL and SDSC jobs exhibit the
// positive width/run-time correlation the load calibration introduces,
// while the marginals (checked elsewhere) stay on target.
func TestWidthRuntimeCorrelation(t *testing.T) {
	for _, m := range []Model{LANL, SDSC} {
		set, err := m.Generate(10000, rng.New(22))
		if err != nil {
			t.Fatal(err)
		}
		var sw, sr, sww, srr, swr float64
		n := float64(len(set.Jobs))
		for _, j := range set.Jobs {
			w, r := float64(j.Width), float64(j.Runtime)
			sw += w
			sr += r
			sww += w * w
			srr += r * r
			swr += w * r
		}
		corr := (swr/n - sw/n*sr/n) /
			math.Sqrt((sww/n-sw/n*sw/n)*(srr/n-sr/n*sr/n))
		if corr < 0.05 {
			t.Errorf("%s: width/runtime correlation %.3f not positive", m.Name, corr)
		}
	}
}

func TestNearestPow2(t *testing.T) {
	// Rounding happens in log space: 12 is nearer to 16 than to 8 there.
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 4, 6: 8, 12: 16, 48: 64, 96: 128, 100: 128}
	for in, want := range cases {
		if got := nearestPow2(in); got != want {
			t.Errorf("nearestPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

func TestCharacterizeSmallSet(t *testing.T) {
	set, err := KTH.Generate(2, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	c := Characterize(set)
	if c.Jobs != 2 || c.IAT.N != 1 {
		t.Fatalf("characteristics = %+v", c)
	}
}

// fitted returns m's generator with its distributions fitted, ready for
// either calibration to run. It is fitted with the load calibration off,
// so it exists even when m's LoadTarget is unattainable.
func fitted(t *testing.T, m Model) generator {
	t.Helper()
	free := m
	free.LoadTarget = 0
	g, err := free.newGenerator()
	if err != nil {
		t.Fatal(err)
	}
	g.m = m
	return *g
}

// calibrate runs both calibrations of m from scratch, bypassing the
// table of stored ones, and returns the fitted generator they calibrate.
func calibrate(t *testing.T, m Model) (generator, error) {
	t.Helper()
	g := fitted(t, m)
	if err := g.calibrateCorrelation(); err != nil {
		return g, err
	}
	if err := g.calibrateOverestimation(); err != nil {
		t.Fatalf("%s: overestimation: %v", m.Name, err)
	}
	return g, nil
}

// TestCalibrationTable holds the table of stored calibrations to fresh
// runs of both calibrations: every built-in model has an entry, its bits
// are what the calibrations return, newGenerator takes it without
// allocating a calibration's samples, and a model differing from a
// built-in in any one field finds no entry. Perturbed variants (other
// load targets, none, a power-of-two-only width model, unattainable
// targets) calibrate to the bits, or fail with the error text, pinned
// when the load calibration still ran on the shard pool, and the
// calibrated ones offer their target load on a fresh sample.
func TestCalibrationTable(t *testing.T) {
	if len(calibrated) != len(Models()) {
		t.Errorf("%d stored calibrations for %d built-in models", len(calibrated), len(Models()))
	}
	for _, base := range Models() {
		for i := 0; i < reflect.TypeOf(base).NumField(); i++ {
			m := base
			f := reflect.ValueOf(&m).Elem().Field(i)
			name := reflect.TypeOf(m).Field(i).Name
			switch f.Kind() {
			case reflect.String:
				f.SetString(f.String() + "'")
			case reflect.Int, reflect.Int64:
				f.SetInt(f.Int() + 1)
			case reflect.Float64:
				f.SetFloat(math.Nextafter(f.Float(), math.Inf(1)))
			case reflect.Bool:
				f.SetBool(!f.Bool())
			default:
				t.Fatalf("Model.%s is a %v; teach this test to change it", name, f.Kind())
			}
			if _, ok := calibrated[m]; ok {
				t.Errorf("%s with %s changed finds a stored calibration", base.Name, name)
			}
		}
	}

	// A built-in takes its entry: the fits allocate under a kilobyte,
	// the calibrations megabytes.
	bits := func(c calibration) [2]uint64 {
		return [2]uint64{math.Float64bits(c.corr), math.Float64bits(c.overShift)}
	}
	for _, m := range Models() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := m.newGenerator()
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; err != nil || alloc > 1<<16 ||
			bits(calibration{g.corr, g.overShift}) != bits(calibrated[m]) {
			t.Errorf("%s: newGenerator allocated %d B (error %v), want the table's %x without calibrating",
				m.Name, alloc, err, calibrated[m])
		}
	}

	type variant struct {
		name    string
		m       Model
		stored  bool // a built-in: want is its table entry
		want    calibration
		wantErr string
	}
	var variants []variant
	for _, m := range Models() {
		variants = append(variants, variant{name: m.Name, m: m, stored: true, want: calibrated[m]})
	}
	perturb := func(name string, base Model, f func(*Model), want calibration, wantErr string) {
		m := base
		f(&m)
		variants = append(variants, variant{name, m, false, want, wantErr})
	}
	perturb("SDSC/load×0.8", SDSC, func(m *Model) { m.LoadTarget *= 0.8 },
		calibration{corr: 0x1.38c4127cf6b88p-04, overShift: 0x1.0fe6312e0f3c8p+01}, "")
	perturb("LANL/load×1.1", LANL, func(m *Model) { m.LoadTarget *= 1.1 },
		calibration{corr: 0x1.e42d5348ff4f6p-02, overShift: 0x1.b913c7200fdbep+00}, "")
	perturb("CTC/load0", CTC, func(m *Model) { m.LoadTarget = 0 },
		calibration{corr: 0, overShift: 0x1.02f6489d32b78p+02}, "")
	perturb("SDSC/pow2only", SDSC, func(m *Model) { m.WidthPow2Only = true },
		calibration{corr: 0x1.48c4d98dcf29cp-03, overShift: 0x1.0fe6312e0f3c8p+01}, "")
	perturb("KTH/unattainable", KTH, func(m *Model) { m.LoadTarget = 50 }, calibration{},
		"load target 50 unattainable even at full correlation (max mean area 362041.55758840765, need 5.155e+06)")
	perturb("KTH/belowfloor", KTH, func(m *Model) { m.LoadTarget = 1e-4 }, calibration{},
		"load target 0.0001 below the anti-correlated floor")

	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			g, err := calibrate(t, v.m)
			var errText string
			if err != nil {
				errText = err.Error()
			}
			if errText != v.wantErr {
				t.Fatalf("error %q, want %q", errText, v.wantErr)
			}
			if err != nil {
				return
			}
			got := calibration{g.corr, g.overShift}
			switch _, ok := calibrated[v.m]; {
			case v.stored && !ok:
				t.Errorf("no stored calibration; add the entry\n\t%s: {corr: %x, overShift: %x},", v.name, got.corr, got.overShift)
			case v.stored && bits(got) != bits(v.want):
				t.Errorf("stored %x, a fresh calibration reads %x; the entry should read\n\t%s: {corr: %x, overShift: %x},",
					v.want, got, v.name, got.corr, got.overShift)
			case !v.stored && bits(got) != bits(v.want):
				t.Errorf("calibrated to %x, pinned %x", got, v.want)
			}
			if v.m.LoadTarget == 0 {
				return
			}
			// The calibrated correlation offers the target load on a
			// sample the calibration never saw.
			const n = 100000
			r := rng.New(21)
			var area float64
			for i := 0; i < n; i++ {
				w, act := g.sampleJob(r.NormFloat64(), r.Float64(), r.NormFloat64())
				area += float64(w) * act
			}
			if load := area / n / (float64(v.m.Machine) * v.m.IATAvg); math.Abs(load-v.m.LoadTarget)/v.m.LoadTarget > 0.10 {
				t.Errorf("offered load %.3f, want %.3f", load, v.m.LoadTarget)
			}
		})
	}
}

// TestGeneratedSetsPinned pins an FNV-1a hash over every field of every job
// of GenerateSets(2, 2000, 2004) per built-in model, and for one model
// outside the table of stored calibrations, recorded when the load
// calibration ran on the shard pool for every model. Any change to a
// generated job fails here in about a second; a last-bit change of a
// calibration may round away, which is TestCalibrationTable's to catch.
// The generator cache is emptied first, so the model outside the table
// calibrates in this test.
func TestGeneratedSetsPinned(t *testing.T) {
	genCache.Range(func(k, _ any) bool {
		genCache.Delete(k)
		return true
	})
	sdsc := SDSC
	sdsc.LoadTarget *= 0.8
	for _, c := range []struct {
		name string
		m    Model
		want uint64
	}{
		{"CTC", CTC, 0x71c25943d1c39376},
		{"KTH", KTH, 0xb4fd94f56dfd63ca},
		{"LANL", LANL, 0x1b63c72087afe830},
		{"SDSC", SDSC, 0x4e5bde17109b7275},
		{"SDSC/load×0.8", sdsc, 0x8dcc83d733391279},
	} {
		sets, err := c.m.GenerateSets(2, 2000, 2004)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, s := range sets {
			for _, j := range s.Jobs {
				for _, v := range []int64{int64(j.ID), j.Submit, int64(j.Width), j.Estimate, j.Runtime} {
					binary.LittleEndian.PutUint64(buf[:], uint64(v))
					h.Write(buf[:])
				}
			}
		}
		if got := h.Sum64(); got != c.want {
			t.Errorf("%s: fingerprint %016x, pinned %016x", c.name, got, c.want)
		}
	}
}

// BenchmarkCalibrate builds one model's generator per iteration,
// bypassing the generator cache that every Generate call hits: for each
// built-in model what a process pays on its first Generate (the fits and
// a table lookup), and under "fresh" both calibrations of a model the
// table does not hold.
func BenchmarkCalibrate(b *testing.B) {
	fresh := SDSC
	fresh.LoadTarget *= 0.8
	for _, c := range []struct {
		name string
		m    Model
	}{{CTC.Name, CTC}, {KTH.Name, KTH}, {LANL.Name, LANL}, {SDSC.Name, SDSC}, {"fresh", fresh}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.m.newGenerator(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
