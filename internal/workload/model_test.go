package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"dynp/internal/rng"
	"dynp/internal/shard"
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

// --- calibration oracle ---
//
// naiveSampleAct, naiveCalibrateCorrelation and naiveCalibrateOverestimation
// are the plain serial form of the two calibrations: every bisection step
// maps every sample's width again, clamps with math.Min/math.Max and sums
// in one loop. The generator's calibrations must reproduce them bit for
// bit at every GOMAXPROCS.

func naiveSampleAct(g *generator, z float64) float64 {
	return math.Min(g.actHi, math.Max(g.actLo, g.actLN.FromNormal(z)))
}

func naiveCalibrateCorrelation(g *generator) error {
	m := g.m
	if m.LoadTarget == 0 {
		g.corr = 0
		return nil
	}
	target := m.LoadTarget * float64(m.Machine) * m.IATAvg
	const n = 200000
	r := rng.New(0xc0a11a7e).Derive(hashName(m.Name))
	zw := make([]float64, n)
	us := make([]float64, n)
	z2 := make([]float64, n)
	for i := 0; i < n; i++ {
		zw[i] = r.NormFloat64()
		us[i] = r.Float64()
		z2[i] = r.NormFloat64()
	}
	meanArea := func(rho float64) float64 {
		g.corr = rho
		var sum float64
		for i := 0; i < n; i++ {
			w := g.width.fromLatent(zw[i], us[i])
			zr := g.corr*zw[i] + math.Sqrt(1-g.corr*g.corr)*z2[i]
			sum += float64(w) * naiveSampleAct(g, zr)
		}
		return sum / n
	}
	const bound = 0.999
	if meanArea(bound) < target {
		return fmt.Errorf("load target %v unattainable even at full correlation (max mean area %v, need %v)",
			m.LoadTarget, meanArea(bound), target)
	}
	if meanArea(-bound) > target {
		return fmt.Errorf("load target %v below the anti-correlated floor", m.LoadTarget)
	}
	lo, hi := -bound, bound
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if meanArea(mid) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	g.corr = (lo + hi) / 2
	return nil
}

func naiveCalibrateOverestimation(g *generator) error {
	m := g.m
	if m.Overest <= 1 {
		g.overShift = 0
		return nil
	}
	const n = 20000
	r := rng.New(0xca11b8a7e).Derive(hashName(m.Name))
	acts := make([]float64, n)
	exps := make([]float64, n)
	for i := 0; i < n; i++ {
		acts[i] = naiveSampleAct(g, r.NormFloat64())
		exps[i] = r.ExpFloat64()
	}
	meanEst := func(shift float64) float64 {
		var sum float64
		for i := 0; i < n; i++ {
			est := acts[i] * (1 + shift*exps[i])
			if est < float64(m.EstMin) {
				est = float64(m.EstMin)
			}
			if est > float64(m.EstMax) {
				est = float64(m.EstMax)
			}
			sum += est
		}
		return sum / n
	}
	lo, hi := 0.0, m.Overest-1
	for meanEst(hi) < m.EstAvg {
		hi *= 2
		if hi > 1e6 {
			return fmt.Errorf("cannot reach estimate mean %v", m.EstAvg)
		}
	}
	if meanEst(lo) > m.EstAvg {
		return fmt.Errorf("estimate mean %v below the no-overestimation floor %v",
			m.EstAvg, meanEst(lo))
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if meanEst(mid) < m.EstAvg {
			lo = mid
		} else {
			hi = mid
		}
	}
	g.overShift = (lo + hi) / 2
	return nil
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

// TestCalibrationMatchesNaive runs both calibrations on the four models
// and on perturbed variants (other load targets, none, a power-of-two-only
// width model, unattainable targets) at GOMAXPROCS 1, 2 and 7 — 7 leaves
// the shard pool's last round of chunks uneven — and requires the same
// correlation and overestimation shift bits, or the same error text, as
// the naive serial reference.
func TestCalibrationMatchesNaive(t *testing.T) {
	type variant struct {
		name    string
		m       Model
		wantErr bool
	}
	variants := make([]variant, 0, 10)
	for _, m := range Models() {
		variants = append(variants, variant{name: m.Name, m: m})
	}
	perturb := func(name string, base Model, wantErr bool, f func(*Model)) {
		m := base
		f(&m)
		variants = append(variants, variant{name: name, m: m, wantErr: wantErr})
	}
	perturb("SDSC/load×0.8", SDSC, false, func(m *Model) { m.LoadTarget *= 0.8 })
	perturb("LANL/load×1.1", LANL, false, func(m *Model) { m.LoadTarget *= 1.1 })
	perturb("CTC/load0", CTC, false, func(m *Model) { m.LoadTarget = 0 })
	perturb("SDSC/pow2only", SDSC, false, func(m *Model) { m.WidthPow2Only = true })
	perturb("KTH/unattainable", KTH, true, func(m *Model) { m.LoadTarget = 50 })
	perturb("KTH/belowfloor", KTH, true, func(m *Model) { m.LoadTarget = 1e-4 })

	// The naive reference is the slow part: run the variants' references
	// side by side on the shard pool.
	wants := make([]generator, len(variants))
	wantErrs := make([]error, len(variants))
	for i, v := range variants {
		wants[i] = fitted(t, v.m)
	}
	err := shard.Run(runtime.GOMAXPROCS(0), len(variants), func(i int) error {
		if wantErrs[i] = naiveCalibrateCorrelation(&wants[i]); wantErrs[i] != nil {
			return nil
		}
		return naiveCalibrateOverestimation(&wants[i])
	})
	if err != nil {
		t.Fatalf("naive overestimation: %v", err)
	}

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for i, v := range variants {
		want, wantErr := wants[i], wantErrs[i]
		if (wantErr != nil) != v.wantErr {
			t.Fatalf("%s: naive calibration error %v, want error %v", v.name, wantErr, v.wantErr)
		}
		for _, procs := range []int{1, 2, 7} {
			runtime.GOMAXPROCS(procs)
			got := fitted(t, v.m)
			err := got.calibrateCorrelation()
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Errorf("%s at GOMAXPROCS %d: error %q, naive %q", v.name, procs, err, wantErr)
				continue
			}
			if err != nil {
				continue
			}
			if err := got.calibrateOverestimation(); err != nil {
				t.Fatalf("%s at GOMAXPROCS %d: overestimation: %v", v.name, procs, err)
			}
			if math.Float64bits(got.corr) != math.Float64bits(want.corr) {
				t.Errorf("%s at GOMAXPROCS %d: corr %x, naive %x", v.name, procs,
					math.Float64bits(got.corr), math.Float64bits(want.corr))
			}
			if math.Float64bits(got.overShift) != math.Float64bits(want.overShift) {
				t.Errorf("%s at GOMAXPROCS %d: overShift %x, naive %x", v.name, procs,
					math.Float64bits(got.overShift), math.Float64bits(want.overShift))
			}
		}
	}
}

// TestGeneratedSetsPinned pins an FNV-1a hash over every field of every job
// of GenerateSets(2, 2000, 2004) per model, recorded with the serial load
// calibration. Any change to a generated job fails here in about a second;
// a last-bit change of the correlation may round away, which is
// TestCalibrationMatchesNaive's to catch. The generator cache is emptied
// first, so each `go test -cpu` pass recalibrates at its own GOMAXPROCS.
func TestGeneratedSetsPinned(t *testing.T) {
	genCache.Range(func(k, _ any) bool {
		genCache.Delete(k)
		return true
	})
	want := map[string]uint64{
		"CTC":  0x71c25943d1c39376,
		"KTH":  0xb4fd94f56dfd63ca,
		"LANL": 0x1b63c72087afe830,
		"SDSC": 0x4e5bde17109b7275,
	}
	for _, m := range Models() {
		sets, err := m.GenerateSets(2, 2000, 2004)
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
		if got := h.Sum64(); got != want[m.Name] {
			t.Errorf("%s: fingerprint %016x, pinned %016x", m.Name, got, want[m.Name])
		}
	}
}

// BenchmarkCalibrate fits and calibrates one model's generator per
// iteration, bypassing the generator cache that every Generate call hits.
func BenchmarkCalibrate(b *testing.B) {
	for _, m := range Models() {
		b.Run(m.Name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := m.newGenerator(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
