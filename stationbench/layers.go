package main

import (
	"reflect"
	"runtime"

	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/peaks"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/portrait"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
)

// perLayerNames lists the per-layer metrics every traced run prints, with
// their units; a layer a workload never enters reads 0. The traced
// sealed-uplink run adds the TCP wire's counters (see runStream).
var perLayerNames = []struct{ name, unit string }{
	{"peaks.r_us_per_window", "us"},
	{"peaks.sys_us_per_window", "us"},
	{"peaks.allocs_per_window", "count"},
	{"portrait.us_per_window", "us"},
	{"features.us_per_window", "us"},
	{"features.allocs_per_window", "count"},
	{"sift.classify_us_per_window", "us"},
	{"sift.allocs_per_classify", "count"},
	{"wiot.channel_us_per_frame", "us"},
	{"wiot.frames_per_verdict", "count"},
	{"wiot.concealed_frac", "frac"},
	{"wiot.ingest_us_per_verdict", "us"},
	{"wiot.first_verdict_ms", "ms"},
	{"wiot.session_ms_p50", "ms"},
	{"wiot.session_ms_p99", "ms"},
	{"amulet.flash_ms_per_device", "ms"},
	{"amulet.classify_us_per_window", "us"},
	{"amulet.cycles_per_window", "count"},
	{"amulet.sram_peak_b", "B"},
	{"svm.train_ms_per_model", "ms"},
	{"svm.train_share", "frac"},
	{"features.train_ms_per_model", "ms"},
	{"dataset.build_ms_per_subject", "ms"},
	{"fleet.idle_frac", "frac"},
	{"fleet.source_us_per_session", "us"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.gc_per_kverdict", "count"},
	{"trace.overhead_frac", "frac"},
	{"trace.coverage_frac", "frac"},
}

// zeroLayers pre-fills every per-layer metric with 0 so the layers a
// workload does not enter are still printed.
func zeroLayers(rep *report) {
	for _, m := range perLayerNames {
		rep.set(m.name, m.unit, 0)
	}
}

// batch times fn over n items three times and returns the median
// nanoseconds per item and the allocations per item of the first pass.
// It runs single-threaded after the measured phases, so the allocation
// count belongs to fn alone.
func batch(n int, fn func(i int) error) (nsPer, allocsPer float64, err error) {
	if n == 0 {
		return 0, 0, nil
	}
	var times []float64
	for rep := 0; rep < 3; rep++ {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := now()
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return 0, 0, err
			}
		}
		t1 := now()
		runtime.ReadMemStats(&m1)
		times = append(times, float64(t1-t0)/float64(n))
		if rep == 0 {
			allocsPer = float64(m1.Mallocs-m0.Mallocs) / float64(n)
		}
	}
	return median(times), allocsPer, nil
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func equalPairs(a, b [][2]int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// retimePeaks replays the station's runtime peak detection on the exact
// windows the detector received and checks it reproduces the peaks the
// station attached.
func retimePeaks(rep *report, kept []keptWindow) error {
	fs := physio.DefaultSampleRate
	cfg := peaks.DetectorConfig{SampleRate: fs}
	maxLag := int(dataset.MaxPairLagSec * fs)
	for i, k := range kept {
		r, err := peaks.DetectR(k.w.ECG, cfg)
		if err != nil {
			return err
		}
		s, err := peaks.DetectSystolic(k.w.ABP, fs)
		if err != nil {
			return err
		}
		if !equalInts(r, k.w.RPeaks) || !equalInts(s, k.w.SysPeaks) || !equalPairs(peaks.Pair(r, s, maxLag), k.w.Pairs) {
			rep.fail("peaks replay of kept window %d (subject %d, index %d) differs from the station's", i, k.subject, k.w.Index)
		}
	}
	rNs, rAllocs, err := batch(len(kept), func(i int) error {
		_, err := peaks.DetectR(kept[i].w.ECG, cfg)
		return err
	})
	if err != nil {
		return err
	}
	sNs, sAllocs, err := batch(len(kept), func(i int) error {
		r, s := kept[i].w.RPeaks, kept[i].w.SysPeaks
		if _, err := peaks.DetectSystolic(kept[i].w.ABP, fs); err != nil {
			return err
		}
		peaks.Pair(r, s, maxLag)
		return nil
	})
	if err != nil {
		return err
	}
	rep.set("peaks.r_us_per_window", "us", rNs/1e3)
	rep.set("peaks.sys_us_per_window", "us", sNs/1e3)
	rep.set("peaks.allocs_per_window", "count", rAllocs+sAllocs)
	note("peaks replay: %d windows, R %.1f us, systolic+pair %.1f us, %.1f allocs per window", len(kept), rNs/1e3, sNs/1e3, rAllocs+sAllocs)
	return nil
}

// replayVerdict recomputes a host verdict stage by stage:
// PeaksDataCheck, portrait, features, model.
func replayVerdict(det *sift.Detector, w dataset.Window) (bool, error) {
	if det.PeakSanity && len(w.RPeaks) == 0 {
		return true, nil
	}
	p, err := w.Portrait()
	if err != nil {
		return false, err
	}
	f, err := features.Extract(det.Version, p, det.GridN)
	if err != nil {
		return false, err
	}
	return det.Model.Decision(f) >= 0, nil
}

// retimeHost re-times portrait, features and the full host classify on
// the given windows, after checking the stage-by-stage replay gives the
// verdict the detector returned.
func retimeHost(rep *report, wins []dataset.Window, verdicts []bool, dets []*sift.Detector) error {
	for i, w := range wins {
		v, err := replayVerdict(dets[i], w)
		if err != nil {
			return err
		}
		if v != verdicts[i] {
			rep.fail("portrait→features→model replay of window %d (%s #%d) gives %v, Classify gave %v", i, w.SubjectID, w.Index, v, verdicts[i])
		}
	}
	portraits := make([]*portrait.Portrait, len(wins))
	pNs, _, err := batch(len(wins), func(i int) error {
		p, err := wins[i].Portrait()
		portraits[i] = p
		return err
	})
	if err != nil {
		return err
	}
	fNs, fAllocs, err := batch(len(wins), func(i int) error {
		_, err := features.Extract(dets[i].Version, portraits[i], dets[i].GridN)
		return err
	})
	if err != nil {
		return err
	}
	cNs, cAllocs, err := batch(len(wins), func(i int) error {
		_, err := dets[i].Classify(wins[i])
		return err
	})
	if err != nil {
		return err
	}
	rep.set("portrait.us_per_window", "us", pNs/1e3)
	rep.set("features.us_per_window", "us", fNs/1e3)
	rep.set("features.allocs_per_window", "count", fAllocs)
	rep.set("sift.classify_us_per_window", "us", cNs/1e3)
	rep.set("sift.allocs_per_classify", "count", cAllocs)
	note("host replay: %d windows, portrait %.1f us, features %.1f us (%.1f allocs), classify %.1f us (%.1f allocs)",
		len(wins), pNs/1e3, fNs/1e3, fAllocs, cNs/1e3, cAllocs)
	return nil
}

// retimeDevice re-runs device classification on fresh detectors flashed
// from the same quantized models and checks the verdicts match.
func retimeDevice(rep *report, wins []dataset.Window, verdicts []bool, devs []*program.DeviceDetector) error {
	for i, w := range wins {
		out, err := devs[i].Classify(w)
		if err != nil {
			return err
		}
		if out.Altered != verdicts[i] {
			rep.fail("device replay of window %d (%s #%d) gives %v, the session's detector gave %v", i, w.SubjectID, w.Index, out.Altered, verdicts[i])
		}
	}
	ns, _, err := batch(len(wins), func(i int) error {
		_, err := devs[i].Classify(wins[i])
		return err
	})
	if err != nil {
		return err
	}
	var cycles uint64
	var windows, sram int
	seen := map[*program.DeviceDetector]bool{}
	for _, d := range devs {
		if seen[d] {
			continue
		}
		seen[d] = true
		cycles += d.TotalCycles
		windows += d.Windows
		if s := d.PeakUsage.SRAMBytes(); s > sram {
			sram = s
		}
	}
	rep.set("amulet.classify_us_per_window", "us", ns/1e3)
	rep.set("amulet.cycles_per_window", "count", float64(cycles)/float64(windows))
	rep.set("amulet.sram_peak_b", "B", float64(sram))
	note("device replay: %d windows, classify %.1f us, %.0f cycles, %d B SRAM peak", len(wins), ns/1e3, float64(cycles)/float64(windows), sram)
	return nil
}

// trainStaged is sift.TrainForSubject split at its layer boundaries,
// each call recorded as a span: dataset.build, features.train (FeaturesOf
// over the training set) and svm.train.
func trainStaged(led *ledger, rec *physio.Record, donors []*physio.Record, cfg sift.Config) (*sift.Detector, error) {
	if cfg.Version == 0 {
		cfg.Version = features.Original
	}
	if cfg.GridN == 0 {
		cfg.GridN = portrait.DefaultGridSize
	}
	t0 := now()
	set, err := dataset.BuildTraining(rec, donors, dataset.WindowSec)
	t1 := now()
	led.add(span{Name: "dataset.build", Start: t0, End: t1, Parent: -1, Session: -1})
	if err != nil {
		return nil, err
	}
	d := &sift.Detector{SubjectID: rec.SubjectID, Version: cfg.Version, GridN: cfg.GridN, PeakSanity: !cfg.DisablePeakSanity}
	x := make([][]float64, 0, len(set.Windows))
	y := make([]svm.Label, 0, len(set.Windows))
	for _, w := range set.Windows {
		f, err := d.FeaturesOf(w)
		if err != nil {
			return nil, err
		}
		x = append(x, f)
		if w.Altered {
			y = append(y, svm.Positive)
		} else {
			y = append(y, svm.Negative)
		}
	}
	t2 := now()
	led.add(span{Name: "features.train", Start: t1, End: t2, Parent: -1, Session: -1})
	d.Model, err = svm.Train(x, y, cfg.SVM)
	t3 := now()
	led.add(span{Name: "svm.train", Start: t2, End: t3, Parent: -1, Session: -1})
	return d, err
}

// trainingLayers re-trains a stream cohort stage by stage, checks every
// model equals the one set-up trained, and prices the stages.
func trainingLayers(rep *report, led *ledger, c *cohort, setupS float64) error {
	for i, rec := range c.trainRecs {
		d, err := trainStaged(led, rec, c.donorsFor(i), sift.Config{SVM: c.svmCfg})
		if err != nil {
			return err
		}
		if !reflect.DeepEqual(d, c.dets[i]) {
			rep.fail("staged re-training of %s does not reproduce set-up's detector", rec.SubjectID)
		}
	}
	trainingMetrics(rep, led, len(c.trainRecs), setupS)
	return nil
}

func trainingMetrics(rep *report, led *ledger, models int, wallS float64) {
	svmNs, _ := led.total("svm.train")
	featNs, _ := led.total("features.train")
	dsNs, _ := led.total("dataset.build")
	rep.set("svm.train_ms_per_model", "ms", float64(svmNs)/1e6/float64(models))
	rep.set("features.train_ms_per_model", "ms", float64(featNs)/1e6/float64(models))
	rep.set("dataset.build_ms_per_subject", "ms", float64(dsNs)/1e6/float64(models))
	rep.set("svm.train_share", "frac", float64(svmNs)/1e9/wallS)
	note("training stages over %d models: svm %.1f ms, features %.1f ms, dataset %.1f ms per model; svm share %.3f of %.3f s",
		models, float64(svmNs)/1e6/float64(models), float64(featNs)/1e6/float64(models),
		float64(dsNs)/1e6/float64(models), float64(svmNs)/1e9/wallS, wallS)
}
