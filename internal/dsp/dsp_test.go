package dsp

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMinMax(t *testing.T) {
	minV, maxV, err := MinMax([]float64{3, -1, 7, 0})
	if err != nil {
		t.Fatal(err)
	}
	if minV != -1 || maxV != 7 {
		t.Errorf("MinMax = (%v, %v), want (-1, 7)", minV, maxV)
	}
}

func TestMinMaxEmpty(t *testing.T) {
	if _, _, err := MinMax(nil); !errors.Is(err, ErrEmptySignal) {
		t.Errorf("MinMax(nil) err = %v, want ErrEmptySignal", err)
	}
}

func TestNormalizeRange(t *testing.T) {
	out, err := Normalize([]float64{2, 4, 6, 10})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 || out[len(out)-1] != 1 {
		t.Errorf("Normalize endpoints = %v, %v", out[0], out[len(out)-1])
	}
	if !almostEqual(out[1], 0.25, 1e-12) {
		t.Errorf("Normalize[1] = %v, want 0.25", out[1])
	}
}

func TestNormalizeConstant(t *testing.T) {
	out, err := Normalize([]float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != 0 {
			t.Errorf("constant normalize[%d] = %v, want 0", i, v)
		}
	}
}

func TestNormalizeEmpty(t *testing.T) {
	if _, err := Normalize(nil); !errors.Is(err, ErrEmptySignal) {
		t.Errorf("err = %v, want ErrEmptySignal", err)
	}
}

func TestMeanVarianceStd(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(x); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	if got := Variance(x); got != 4 {
		t.Errorf("Variance = %v, want 4", got)
	}
	if got := Std(x); got != 2 {
		t.Errorf("Std = %v, want 2", got)
	}
	if Mean(nil) != 0 || Variance(nil) != 0 {
		t.Error("empty stats should be 0")
	}
}

func TestRMS(t *testing.T) {
	if got := RMS([]float64{3, -3, 3, -3}); got != 3 {
		t.Errorf("RMS = %v, want 3", got)
	}
	if RMS(nil) != 0 {
		t.Error("RMS(nil) should be 0")
	}
}

func TestMovingAverage(t *testing.T) {
	out, err := MovingAverage([]float64{1, 2, 3, 4, 5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1.5, 2, 3, 4, 4.5}
	for i := range want {
		if !almostEqual(out[i], want[i], 1e-12) {
			t.Errorf("MovingAverage[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestMovingAverageBadWindow(t *testing.T) {
	for _, w := range []int{0, -1, 2, 4} {
		if _, err := MovingAverage([]float64{1}, w); err == nil {
			t.Errorf("window %d should error", w)
		}
	}
}

// resumMovingAverage is the integrator MovingAverage's running sum
// replaced: it re-adds the whole (edge-truncated) window at every sample.
func resumMovingAverage(x []float64, window int) []float64 {
	half := window / 2
	out := make([]float64, len(x))
	for i := range x {
		lo, hi := max(i-half, 0), min(i+half+1, len(x))
		var s float64
		for _, v := range x[lo:hi] {
			s += v
		}
		out[i] = s / float64(hi-lo)
	}
	return out
}

func TestMovingAverageIntoTable(t *testing.T) {
	for _, tc := range []struct {
		x      []float64
		window int
		want   []float64
	}{
		{nil, 3, []float64{}},
		{[]float64{4}, 5, []float64{4}},
		{[]float64{1, 2, 3}, 1, []float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5}, 3, []float64{1.5, 2, 3, 4, 4.5}},
		{[]float64{2, 4, 6, 8}, 5, []float64{4, 5, 5, 6}},
		{[]float64{3, 6, 9}, 9, []float64{6, 6, 6}}, // window wider than x
		{[]float64{8, 0, 0, 0, 0, 0, 8}, 3, []float64{4, 8.0 / 3, 0, 0, 0, 8.0 / 3, 4}},
	} {
		got, err := MovingAverageInto(nil, tc.x, tc.window)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("MovingAverageInto(%v, %d) = %v, want %v", tc.x, tc.window, got, tc.want)
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("MovingAverageInto(%v, %d)[%d] = %v, want %v", tc.x, tc.window, i, got[i], tc.want[i])
			}
		}
	}
	if _, err := MovingAverageInto(make([]float64, 4), []float64{1, 2}, 4); err == nil {
		t.Error("even window should error")
	}
}

// TestMovingAverageMatchesResum checks the running sum against the
// re-summing integrator over random lengths, window sizes and edges.
// Where the samples share a magnitude (as squared ECG energy does within a
// beat) the relative error per sample is at most 1e-12; for samples of
// any sign and scale the error is at most 1e-12 of the largest window
// average magnitude, the scale at which every running-sum step rounds.
func TestMovingAverageMatchesResum(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(1500)
		window := 2*rng.Intn(60) + 1
		positive := make([]float64, n)
		wide := make([]float64, n)
		for i := range positive {
			positive[i] = 1 + rng.Float64()
			wide[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(12)-6))
		}

		got, err := MovingAverage(positive, window)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range resumMovingAverage(positive, window) {
			if rel := math.Abs(got[i]-w) / w; rel > 1e-12 {
				t.Fatalf("n=%d window=%d: sample %d = %v, re-sum %v (relative error %.3g)", n, window, i, got[i], w, rel)
			}
		}

		got, err = MovingAverage(wide, window)
		if err != nil {
			t.Fatal(err)
		}
		abs := make([]float64, n)
		for i, v := range wide {
			abs[i] = math.Abs(v)
		}
		var scale float64
		for _, v := range resumMovingAverage(abs, window) {
			scale = max(scale, v)
		}
		for i, w := range resumMovingAverage(wide, window) {
			if d := math.Abs(got[i] - w); d > 1e-12*scale {
				t.Fatalf("n=%d window=%d: sample %d = %v, re-sum %v (error %.3g of scale %.3g)", n, window, i, got[i], w, d, scale)
			}
		}
	}
}

func TestMovingAverageIntoReusesDst(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5, 6, 7}
	dst := make([]float64, 3, 16)
	out, err := MovingAverageInto(dst, x, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(x) || &out[0] != &dst[:1][0] {
		t.Fatalf("MovingAverageInto did not reuse dst's storage (len %d)", len(out))
	}
	if n := testing.AllocsPerRun(100, func() {
		out, err = MovingAverageInto(out, x, 5)
	}); n != 0 || err != nil {
		t.Errorf("MovingAverageInto into a large enough dst allocates %.1f/op (err %v), want 0", n, err)
	}
}

func TestDiff(t *testing.T) {
	out := Diff([]float64{1, 4, 9, 16})
	want := []float64{3, 5, 7}
	if len(out) != len(want) {
		t.Fatalf("Diff length = %d, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("Diff[%d] = %v, want %v", i, out[i], want[i])
		}
	}
	if Diff([]float64{1}) != nil {
		t.Error("Diff of single sample should be nil")
	}
}

func TestSquareClipDetrend(t *testing.T) {
	sq := Square([]float64{-2, 3})
	if sq[0] != 4 || sq[1] != 9 {
		t.Errorf("Square = %v", sq)
	}
	cl := Clip([]float64{-5, 0.5, 5}, 0, 1)
	if cl[0] != 0 || cl[1] != 0.5 || cl[2] != 1 {
		t.Errorf("Clip = %v", cl)
	}
	dt := DetrendMean([]float64{1, 2, 3})
	if Mean(dt) != 0 {
		t.Errorf("DetrendMean mean = %v, want 0", Mean(dt))
	}
}

func TestTrapezoid(t *testing.T) {
	// y = x over [0,3]: area 4.5.
	if got := Trapezoid([]float64{0, 1, 2, 3}); got != 4.5 {
		t.Errorf("Trapezoid = %v, want 4.5", got)
	}
	if Trapezoid([]float64{1}) != 0 {
		t.Error("Trapezoid of one sample should be 0")
	}
}

func TestSimplifiedAUCEqualsTrapezoid(t *testing.T) {
	y := []float64{0, 2, 1, 3, 2, 5}
	if got, want := SimplifiedAUC(y), Trapezoid(y); !almostEqual(got, want, 1e-12) {
		t.Errorf("SimplifiedAUC = %v, Trapezoid = %v; should agree on unit spacing", got, want)
	}
}

func TestQuickNormalizeBounds(t *testing.T) {
	f := func(x []float64) bool {
		clean := make([]float64, 0, len(x))
		for _, v := range x {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		if len(clean) == 0 {
			return true
		}
		out, err := Normalize(clean)
		if err != nil {
			return false
		}
		for _, v := range out {
			if v < 0 || v > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickVarianceNonNegative(t *testing.T) {
	f := func(x []float64) bool {
		for _, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e100 {
				return true
			}
		}
		return Variance(x) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLowPassAttenuatesHighFreq(t *testing.T) {
	const fs = 360.0
	lp, err := LowPass(10, fs)
	if err != nil {
		t.Fatal(err)
	}
	// A 100 Hz tone should be strongly attenuated; a 1 Hz tone passed.
	n := 2000
	hi := make([]float64, n)
	lo := make([]float64, n)
	for i := 0; i < n; i++ {
		tm := float64(i) / fs
		hi[i] = math.Sin(2 * math.Pi * 100 * tm)
		lo[i] = math.Sin(2 * math.Pi * 1 * tm)
	}
	hiOut := lp.Apply(hi)
	loOut := lp.Apply(lo)
	// Skip the transient.
	if r := RMS(hiOut[500:]) / RMS(hi[500:]); r > 0.1 {
		t.Errorf("100 Hz attenuation ratio = %v, want < 0.1", r)
	}
	if r := RMS(loOut[500:]) / RMS(lo[500:]); r < 0.9 {
		t.Errorf("1 Hz pass ratio = %v, want > 0.9", r)
	}
}

func TestHighPassRemovesDC(t *testing.T) {
	const fs = 360.0
	hp, err := HighPass(0.5, fs)
	if err != nil {
		t.Fatal(err)
	}
	n := 4000
	x := make([]float64, n)
	for i := range x {
		x[i] = 10 // pure DC
	}
	out := hp.Apply(x)
	if math.Abs(out[n-1]) > 0.1 {
		t.Errorf("DC residue = %v, want ~0", out[n-1])
	}
}

func TestBandPassValidation(t *testing.T) {
	if _, err := BandPass(20, 5, 360); err == nil {
		t.Error("inverted band edges should error")
	}
	if _, err := BandPass(5, 20, 360); err != nil {
		t.Errorf("valid band errored: %v", err)
	}
	if _, err := LowPass(500, 360); err == nil {
		t.Error("cutoff above Nyquist should error")
	}
	if _, err := LowPass(10, 0); err == nil {
		t.Error("zero sample rate should error")
	}
}

func TestCascadeApplyResets(t *testing.T) {
	c, err := BandPass(5, 15, 360)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{1, 0, 0, 0, 0}
	a := c.Apply(x)
	b := c.Apply(x)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Apply not deterministic after reset: %v vs %v", a, b)
		}
	}
}

func TestResample(t *testing.T) {
	// Linear ramp resamples exactly under linear interpolation.
	x := []float64{0, 1, 2, 3, 4}
	out, err := Resample(x, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		want := float64(i) * 0.5
		if !almostEqual(v, want, 1e-9) {
			t.Errorf("Resample[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestResampleEdgeCases(t *testing.T) {
	if _, err := Resample(nil, 100, 100); !errors.Is(err, ErrEmptySignal) {
		t.Error("empty resample should error")
	}
	if _, err := Resample([]float64{1}, 0, 100); err == nil {
		t.Error("zero input rate should error")
	}
	out, err := Resample([]float64{7}, 100, 50)
	if err != nil || len(out) != 1 || out[0] != 7 {
		t.Errorf("single-sample resample = %v, %v", out, err)
	}
}

func TestResampleDownThenLengthMatches(t *testing.T) {
	x := make([]float64, 361) // 1 s at 360 Hz (inclusive endpoints)
	out, err := Resample(x, 360, 250)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 251 {
		t.Errorf("downsampled length = %d, want 251", len(out))
	}
}
