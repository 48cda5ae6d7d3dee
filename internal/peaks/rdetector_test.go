package peaks

import (
	"slices"
	"testing"

	"github.com/wiot-security/sift/internal/dsp"
	"github.com/wiot-security/sift/internal/physio"
)

// resumMovingAverage is the integrator RDetector's running sum replaced:
// it re-adds the whole (edge-truncated) window at every sample.
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

// referenceThresholdPeaks is the integrator-peak search as DetectR ran it
// before RDetector.
func referenceThresholdPeaks(x []float64, frac float64, refractory int) []int {
	_, maxV, err := dsp.MinMax(x)
	if err != nil || maxV <= 0 {
		return nil
	}
	floor := frac * maxV
	var out []int
	last := -refractory
	for i := 1; i < len(x)-1; i++ {
		if x[i] < floor || x[i] < x[i-1] || x[i] <= x[i+1] {
			continue
		}
		if i-last < refractory {
			if len(out) > 0 && x[i] > x[out[len(out)-1]] {
				out[len(out)-1] = i
				last = i
			}
			continue
		}
		out = append(out, i)
		last = i
	}
	return out
}

// referenceDetectR is the R-peak pipeline as it ran before RDetector, kept
// as the oracle: a band-pass designed per call, separate difference and
// square passes, and the re-summing integrator.
func referenceDetectR(t testing.TB, ecg []float64, cfg DetectorConfig) []int {
	t.Helper()
	cfg = cfg.fillDefaults()
	band, err := dsp.BandPass(cfg.BandLow, cfg.BandHigh, cfg.SampleRate)
	if err != nil {
		t.Fatal(err)
	}
	squared := dsp.Square(dsp.Diff(band.Apply(ecg)))
	win := int(cfg.WindowSec * cfg.SampleRate)
	if win%2 == 0 {
		win++
	}
	integrated := resumMovingAverage(squared, win)
	refractory := int(cfg.Refractory * cfg.SampleRate)
	var out []int
	for _, c := range referenceThresholdPeaks(integrated, cfg.ThreshFrac, refractory) {
		out = append(out, argmaxAround(ecg, c, win))
	}
	return dedupeSorted(out, refractory)
}

// cohortWindows returns every 3 s ECG window of 20 minutes of each of the
// 12 subjects of physio.Cohort(12, 42), followed by as many spliced
// windows: the first half of a subject's window joined to the second half
// of the next subject's window at the same position.
func cohortWindows(t testing.TB) [][]float64 {
	t.Helper()
	const subjects, seconds = 12, 1200
	cohort, err := physio.Cohort(subjects, 42)
	if err != nil {
		t.Fatal(err)
	}
	fs := physio.DefaultSampleRate
	wlen := int(3 * fs)
	recs := make([]*physio.Record, subjects)
	for i, s := range cohort {
		if recs[i], err = physio.Generate(s, seconds, fs, int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	var clean, spliced [][]float64
	for i, rec := range recs {
		donor := recs[(i+1)%subjects]
		for lo := 0; lo+wlen <= len(rec.ECG) && lo+wlen <= len(donor.ECG); lo += wlen {
			clean = append(clean, rec.ECG[lo:lo+wlen])
			w := slices.Concat(rec.ECG[lo:lo+wlen/2], donor.ECG[lo+wlen/2:lo+wlen])
			spliced = append(spliced, w)
		}
	}
	return append(clean, spliced...)
}

// TestRDetectorMatchesReference is the differential oracle for the
// running-sum integrator: its output differs from the re-sum's by a few
// ulps, so the contract is the R-peak list, which must be identical on
// every clean and spliced cohort window.
func TestRDetectorMatchesReference(t *testing.T) {
	cfg := DetectorConfig{SampleRate: physio.DefaultSampleRate}
	d, err := NewRDetector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	windows := cohortWindows(t)
	if len(windows) < 9600 {
		t.Fatalf("only %d windows", len(windows))
	}
	mismatches := 0
	for i, ecg := range windows {
		want := referenceDetectR(t, ecg, cfg)
		got, err := d.Detect(ecg)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, want) {
			if mismatches++; mismatches <= 5 {
				t.Errorf("window %d: R peaks %v, reference %v", i, got, want)
			}
		}
	}
	if mismatches > 0 {
		t.Errorf("%d of %d windows differ from the reference", mismatches, len(windows))
	}
}

// TestRDetectorReuseIsolation checks that a detector's reused buffers
// carry nothing from one call into the next, including across windows of
// different lengths.
func TestRDetectorReuseIsolation(t *testing.T) {
	recA, err := physio.Generate(physio.DefaultSubject(), 6, physio.DefaultSampleRate, 1)
	if err != nil {
		t.Fatal(err)
	}
	cohort, err := physio.Cohort(2, 7)
	if err != nil {
		t.Fatal(err)
	}
	recB, err := physio.Generate(cohort[1], 4, physio.DefaultSampleRate, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewRDetector(DetectorConfig{SampleRate: physio.DefaultSampleRate})
	if err != nil {
		t.Fatal(err)
	}
	detect := func(ecg []float64) []int {
		r, err := d.Detect(ecg)
		if err != nil {
			t.Fatal(err)
		}
		return slices.Clone(r)
	}
	first := detect(recA.ECG)
	if len(first) == 0 {
		t.Fatal("no R peaks in window A")
	}
	b := detect(recB.ECG)
	if slices.Equal(b, first) {
		t.Fatal("windows A and B should have different R peaks")
	}
	if again := detect(recA.ECG); !slices.Equal(again, first) {
		t.Errorf("A after B = %v, want A's first result %v", again, first)
	}
	fresh, err := DetectR(recB.ECG, DetectorConfig{SampleRate: physio.DefaultSampleRate})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b, fresh) {
		t.Errorf("reused detector on B = %v, fresh DetectR = %v", b, fresh)
	}
}

func TestRDetectorSteadyStateAllocFree(t *testing.T) {
	rec, err := physio.Generate(physio.DefaultSubject(), 3, physio.DefaultSampleRate, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewRDetector(DetectorConfig{SampleRate: rec.SampleRate})
	if err != nil {
		t.Fatal(err)
	}
	var sys []int
	var pairs [][2]int
	if n := testing.AllocsPerRun(50, func() {
		r, err := d.Detect(rec.ECG)
		if err != nil {
			t.Fatal(err)
		}
		if sys, err = DetectSystolicInto(sys, rec.ABP, rec.SampleRate); err != nil {
			t.Fatal(err)
		}
		pairs = PairInto(pairs, r, sys, int(rec.SampleRate))
	}); n != 0 {
		t.Errorf("steady-state peak detection allocates %.1f/window, want 0", n)
	}
	if len(pairs) == 0 {
		t.Error("no R-systolic pairs found")
	}
}

func TestNewRDetectorValidation(t *testing.T) {
	for _, cfg := range []DetectorConfig{
		{},                                 // no sample rate
		{SampleRate: 20},                   // band-pass above Nyquist
		{SampleRate: 360, WindowSec: -0.5}, // negative integration window
	} {
		if _, err := NewRDetector(cfg); err == nil {
			t.Errorf("NewRDetector(%+v) should error", cfg)
		}
	}
}

// BenchmarkRDetector is the station's per-window R-peak cost: one 3 s
// window through a reused detector.
func BenchmarkRDetector(b *testing.B) {
	rec, err := physio.Generate(physio.DefaultSubject(), 3, physio.DefaultSampleRate, 4)
	if err != nil {
		b.Fatal(err)
	}
	d, err := NewRDetector(DetectorConfig{SampleRate: rec.SampleRate})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Detect(rec.ECG); err != nil {
			b.Fatal(err)
		}
	}
}
