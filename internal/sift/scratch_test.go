package sift

import (
	"sync"
	"testing"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
)

// testWindows returns the fixture's test set: genuine and substituted
// windows, so both verdicts occur.
func testWindows(t *testing.T, fx *fixture) []dataset.Window {
	t.Helper()
	set, err := dataset.BuildTest(fx.subjectTest, fx.donorsTest, dataset.WindowSec, 0.5, 9)
	if err != nil {
		t.Fatal(err)
	}
	return set.Windows
}

// freshResult classifies w the way the pipeline did before pooled
// scratch: a new portrait and a new feature vector per window.
func freshResult(t *testing.T, d *Detector, w dataset.Window) Result {
	t.Helper()
	p, err := w.Portrait()
	if err != nil {
		t.Fatal(err)
	}
	f, err := features.Extract(d.Version, p, d.GridN)
	if err != nil {
		t.Fatal(err)
	}
	m := d.Model.Decision(f)
	return Result{Altered: m >= 0, Margin: m}
}

// TestClassifyConcurrentMatchesFresh shares one Detector, and so its
// scratch pool, between goroutines classifying in different orders, and
// requires every result to equal a fresh-buffer classification bit for
// bit.
func TestClassifyConcurrentMatchesFresh(t *testing.T) {
	fx := newFixture(t)
	for _, v := range features.Versions {
		d := trainDetector(t, fx, v)
		wins := testWindows(t, fx)
		want := make([]Result, len(wins))
		for i, w := range wins {
			want[i] = freshResult(t, d, w)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for k := range wins {
					i := (k*(2*g+1) + g) % len(wins)
					got, err := d.Classify(wins[i])
					if err != nil {
						t.Error(err)
						return
					}
					if got != want[i] {
						t.Errorf("%s window %d: pooled Classify = %+v, fresh = %+v", v, i, got, want[i])
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

func TestFeaturesOfReturnsCallerOwnedVector(t *testing.T) {
	fx := newFixture(t)
	d := trainDetector(t, fx, features.Original)
	wins := testWindows(t, fx)
	a, err := d.FeaturesOf(wins[0])
	if err != nil {
		t.Fatal(err)
	}
	keep := append([]float64(nil), a...)
	if _, err := d.FeaturesOf(wins[1]); err != nil {
		t.Fatal(err)
	}
	for i := range keep {
		if a[i] != keep[i] {
			t.Fatalf("FeaturesOf result changed by a later call: %v, was %v", a, keep)
		}
	}
}

// TestClassifyAllocFree pins host classification at zero allocations per
// window once the scratch pool is warm.
func TestClassifyAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	fx := newFixture(t)
	wins := testWindows(t, fx)
	for _, v := range features.Versions {
		d := trainDetector(t, fx, v)
		for _, w := range wins {
			if _, err := d.Classify(w); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		if n := testing.AllocsPerRun(len(wins), func() {
			if _, err := d.Classify(wins[i%len(wins)]); err != nil {
				t.Fatal(err)
			}
			i++
		}); n != 0 {
			t.Errorf("%s: Classify allocates %.1f times per window, want 0", v, n)
		}
	}
}
