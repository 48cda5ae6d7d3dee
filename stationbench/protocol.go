package main

import (
	"errors"
	"reflect"
	"time"

	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/experiments"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/metrics"
	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
)

// The latency probe classifies subject 0's Table II test windows with
// that subject's three flashed devices, in probeBlocks blocks (see
// blocker).
const (
	probeBlocks = 5
	// retimeSubjects is how many subjects' test windows the traced run
	// re-times stage by stage (per version).
	retimeSubjects = 4
)

type protoFixture struct {
	env    *experiments.Env
	svmCfg svm.Config
	// Latency probe: subject 0's test set and flashed device per version.
	probeSet *dataset.LabeledSet
	probeDev []*program.DeviceDetector
}

// buildProtocol is the paper protocol's set-up: the full-size cohort of
// experiments.DefaultConfig at the workload seed, plus the latency
// probe's fixture.
func buildProtocol(seed int64) (*protoFixture, error) {
	cfg := experiments.DefaultConfig()
	cfg.Seed = seed
	env, err := experiments.NewEnv(cfg)
	if err != nil {
		return nil, err
	}
	fx := &protoFixture{env: env, svmCfg: svm.Config{Seed: seed, MaxIter: svmIter}}
	fx.probeSet, err = dataset.BuildTest(env.TestRecs[0], env.TestDonorsFor(0), dataset.WindowSec, dataset.TestAlteredFrac, cfg.Seed+2000)
	if err != nil {
		return nil, err
	}
	for _, v := range features.Versions {
		det, err := sift.TrainForSubject(env.TrainRecs[0], env.DonorsFor(0), sift.Config{Version: v, SVM: fx.svmCfg})
		if err != nil {
			return nil, err
		}
		q, err := det.Quantize()
		if err != nil {
			return nil, err
		}
		dev, err := program.NewDeviceDetector(v, nil, q)
		if err != nil {
			return nil, err
		}
		fx.probeDev = append(fx.probeDev, dev)
	}
	return fx, nil
}

// protocolPass is one run of the paper protocol: Table II then Table III.
type protocolPass struct {
	t2   *experiments.Table2Result
	t3   *experiments.Table3Result
	text string
}

func runProtocolPass(fx *protoFixture) (*protocolPass, error) {
	t2, err := experiments.Table2(fx.env, fx.svmCfg)
	if err != nil {
		return nil, err
	}
	t3, err := experiments.Table3(fx.env, nil)
	if err != nil {
		return nil, err
	}
	return &protocolPass{t2: t2, t3: t3, text: t2.Format() + t3.Format()}, nil
}

// windowsPerSubject is the Table II test-set size per subject (40).
func (fx *protoFixture) windowsPerSubject() int {
	return int(fx.env.Config.TestSec / dataset.WindowSec)
}

// verdicts is the number of window verdicts in one Table II pass.
func (fx *protoFixture) verdicts(p *protocolPass) int {
	return len(p.t2.Rows) * len(fx.env.Subjects) * fx.windowsPerSubject()
}

// checkPass applies the output checks every pass must meet; at the
// default seed the formatted tables must equal the committed goldens. It
// reports whether the pass met them all.
func checkPass(rep *report, fx *protoFixture, p *protocolPass, first *protocolPass, seed int64) bool {
	ok := true
	fail := func(format string, args ...any) {
		ok = false
		rep.fail(format, args...)
	}
	if len(p.t2.Rows) != 2*len(features.Versions) || len(p.t3.Rows) != len(features.Versions) {
		fail("paper-protocol: %d Table II rows and %d Table III rows", len(p.t2.Rows), len(p.t3.Rows))
	}
	for _, r := range p.t2.Rows {
		if r.Summary.N != len(fx.env.Subjects) {
			fail("paper-protocol: %v/%s summarizes %d subjects, want %d", r.Version, r.Platform, r.Summary.N, len(fx.env.Subjects))
		}
	}
	if first != nil && p.text != first.text {
		fail("paper-protocol: pass output differs from the first pass")
	}
	if first == nil && seed == defaultSeed {
		want, err := goldenTables()
		if err != nil {
			fail("%v", err)
		} else if p.text != want {
			fail("paper-protocol: Table II/III at seed %d differ from the committed goldens:\n%s\nwant:\n%s", seed, p.text, want)
		}
	}
	return ok
}

// windowAcc pools Table II accuracy over every row; every subject has
// the same number of test windows, so the mean of the per-subject
// accuracies is the pooled fraction.
func windowAcc(p *protocolPass) float64 {
	var s float64
	for _, r := range p.t2.Rows {
		s += r.Summary.AvgAcc
	}
	return s / float64(len(p.t2.Rows))
}

// probeLatency times single device verdicts: each of subject 0's Table
// II test windows through the flashed device of every version, one
// latency sample per Classify call. Device verdicts are the costly half
// of Table II's; the host verdicts are priced in the traced run.
func probeLatency(rep *report, fx *protoFixture) error {
	var pooled hist
	bl := newBlocker()
	var first []bool
	for pass := 0; len(bl.closed) < probeBlocks; pass++ {
		var verdicts []bool
		for _, w := range fx.probeSet.Windows {
			for _, dev := range fx.probeDev {
				t0 := now()
				out, err := dev.Classify(w)
				t1 := now()
				if err != nil {
					return err
				}
				verdicts = append(verdicts, out.Altered)
				pooled.add(t1 - t0)
				bl.lat.add(t1 - t0)
				bl.verdicts++
			}
		}
		if pass == 0 {
			first = verdicts
		} else if !reflect.DeepEqual(first, verdicts) {
			rep.fail("paper-protocol: latency probe pass %d changed verdicts", pass)
		}
		bl.closeIfDue(false)
	}
	blockLatency(rep, bl, &pooled)
	return nil
}

func runPaperProtocol(o options) (*report, error) {
	rep := newReport()
	fx, setupS, err := timeSetup(func() (*protoFixture, error) { return buildProtocol(o.seed) })
	if err != nil {
		return nil, err
	}
	if obs.Enabled() {
		return nil, errors.New("obs is enabled before the untraced phase")
	}
	subjects := len(fx.env.Subjects)

	if !o.trace {
		// Each pass is one block.
		m := startMeter()
		bl := newBlocker()
		var first *protocolPass
		passes, verdicts, succeeded := 0, 0, 0
		for passes == 0 || time.Since(m.start).Seconds() < o.seconds {
			p, err := runProtocolPass(fx)
			if err != nil {
				return nil, err
			}
			bl.verdicts += fx.verdicts(p)
			bl.closeIfDue(true)
			// Table II reports summaries only, so a pass that fails a
			// check fails every subject in it.
			if checkPass(rep, fx, p, first, o.seed) {
				succeeded += subjects
			}
			if first == nil {
				first = p
			}
			passes++
			verdicts += fx.verdicts(p)
		}
		ps := m.end()
		endToEnd(rep, ps, bl, verdicts, setupS)
		rep.Attempted = subjects * passes
		rep.Failed = rep.Attempted - succeeded
		rep.set("success_frac", "frac", float64(succeeded)/float64(rep.Attempted))
		rep.set("window_acc", "frac", windowAcc(first))
		note("subjects: %d attempted, %d succeeded, %d failed", rep.Attempted, succeeded, rep.Failed)
		note("protocol: %d passes, %d subjects each, %d verdicts per pass\n%s", passes, subjects, fx.verdicts(first), first.text)
		if err := probeLatency(rep, fx); err != nil {
			return nil, err
		}
		return rep, protocolGolden(rep, o.seed)
	}

	zeroLayers(rep)
	m := startMeter()
	base, err := runProtocolPass(fx)
	if err != nil {
		return nil, err
	}
	ps0 := m.end()
	if !checkPass(rep, fx, base, nil, o.seed) {
		rep.Failed = subjects
	}
	runtimeMetrics(rep, ps0, fx.verdicts(base))

	obs.Reset()
	obs.SetEnabled(true)
	led := &ledger{}
	m = startMeter()
	rp, err := replayProtocol(led, fx)
	ps1 := m.end()
	obs.SetEnabled(false)
	if err != nil {
		return nil, err
	}
	rep.Attempted = 2 * subjects
	if !reflect.DeepEqual(rp.rows, base.t2.Rows) || !reflect.DeepEqual(rp.telemetry, base.t2.Telemetry) {
		rep.fail("paper-protocol: the stage-by-stage replay does not reproduce Table II")
	}
	if rp.t3text != base.t3.Format() {
		rep.fail("paper-protocol: the traced Table III differs from the untraced one")
	}

	models := len(features.Versions) * subjects
	trainingMetrics(rep, led, models, ps1.wall.Seconds())
	flashNs, flashes := led.total("amulet.flash")
	devNs, devCalls := led.total("amulet.classify")
	rep.set("amulet.flash_ms_per_device", "ms", float64(flashNs)/1e6/float64(flashes))
	rep.set("amulet.classify_us_per_window", "us", float64(devNs)/1e3/float64(devCalls))
	rep.set("amulet.cycles_per_window", "count", float64(rp.cycles)/float64(rp.devWindows))
	rep.set("amulet.sram_peak_b", "B", float64(rp.sramPeak))
	if err := retimeHost(rep, rp.keptWins, rp.keptVerdicts, rp.keptDets); err != nil {
		return nil, err
	}
	hostNs, hostCalls := led.total("sift.classify")
	note("traced replay: host classify %.1f us over %d windows (in-protocol); device %.1f us over %d windows",
		float64(hostNs)/1e3/float64(hostCalls), hostCalls, float64(devNs)/1e3/float64(devCalls), devCalls)

	v := float64(fx.verdicts(base))
	rep.set("trace.overhead_frac", "frac", 1-(v/ps1.wall.Seconds())/(v/ps0.wall.Seconds()))
	var covered int64
	for _, n := range []string{"dataset.build", "features.train", "svm.train", "sift.classify", "svm.quantize", "amulet.flash", "amulet.classify", "experiments.table3"} {
		ns, _ := led.total(n)
		covered += ns
	}
	rep.set("trace.coverage_frac", "frac", float64(covered)/float64(ps1.wall))
	note("untraced pass %.3f s, traced replay %.3f s", ps0.wall.Seconds(), ps1.wall.Seconds())
	if err := led.dump(spanDir, "paper-protocol", o.seed); err != nil {
		return nil, err
	}
	return rep, protocolGolden(rep, o.seed)
}

// protocolGolden runs the protocol once at the default seed (untimed) when
// the run was at another seed, so every run checks the committed Table
// II/III; at the default seed the measured passes were already checked.
func protocolGolden(rep *report, seed int64) error {
	if seed == defaultSeed {
		return nil
	}
	fx, err := buildProtocol(defaultSeed)
	if err != nil {
		return err
	}
	p, err := runProtocolPass(fx)
	if err != nil {
		return err
	}
	checkPass(rep, fx, p, nil, defaultSeed)
	return nil
}

// replayed is the stage-by-stage protocol's output.
type replayed struct {
	rows       []experiments.Table2Row
	telemetry  map[features.Version]experiments.DeviceTelemetry
	t3text     string
	cycles     uint64
	devWindows int
	sramPeak   int
	// The first retimeSubjects subjects' test windows with their host
	// detectors and verdicts, for the per-window stage re-timing.
	keptWins     []dataset.Window
	keptVerdicts []bool
	keptDets     []*sift.Detector
}

// replayProtocol performs experiments.Table2's protocol call by call,
// recording a span around each layer (dataset, features, svm, host
// classify, quantize, flash, device classify), then Table III.
func replayProtocol(led *ledger, fx *protoFixture) (*replayed, error) {
	env := fx.env
	out := &replayed{telemetry: map[features.Version]experiments.DeviceTelemetry{}}
	for _, v := range features.Versions {
		var hostCMs, devCMs []metrics.Confusion
		var cycles uint64
		var windows, peakSRAM int
		for i := range env.Subjects {
			det, err := trainStaged(led, env.TrainRecs[i], env.DonorsFor(i), sift.Config{Version: v, SVM: fx.svmCfg})
			if err != nil {
				return nil, err
			}
			t0 := now()
			testSet, err := dataset.BuildTest(env.TestRecs[i], env.TestDonorsFor(i), dataset.WindowSec, dataset.TestAlteredFrac, env.Config.Seed+2000+int64(i))
			led.add(span{Name: "dataset.build", Start: t0, End: now(), Parent: -1, Session: int32(i)})
			if err != nil {
				return nil, err
			}
			var hostCM, devCM metrics.Confusion
			for _, w := range testSet.Windows {
				t0 := now()
				r, err := det.Classify(w)
				led.add(span{Name: "sift.classify", Start: t0, End: now(), Parent: -1, Session: int32(i)})
				if err != nil {
					return nil, err
				}
				hostCM.Add(w.Altered, r.Altered)
				if i < retimeSubjects {
					out.keptWins = append(out.keptWins, w)
					out.keptVerdicts = append(out.keptVerdicts, r.Altered)
					out.keptDets = append(out.keptDets, det)
				}
			}
			hostCMs = append(hostCMs, hostCM)
			t0 = now()
			q, err := det.Quantize()
			t1 := now()
			led.add(span{Name: "svm.quantize", Start: t0, End: t1, Parent: -1, Session: int32(i)})
			if err != nil {
				return nil, err
			}
			dev, err := program.NewDeviceDetector(v, nil, q)
			led.add(span{Name: "amulet.flash", Start: t1, End: now(), Parent: -1, Session: int32(i)})
			if err != nil {
				return nil, err
			}
			for _, w := range testSet.Windows {
				t0 := now()
				o, err := dev.Classify(w)
				led.add(span{Name: "amulet.classify", Start: t0, End: now(), Parent: -1, Session: int32(i)})
				if err != nil {
					return nil, err
				}
				devCM.Add(w.Altered, o.Altered)
			}
			devCMs = append(devCMs, devCM)
			cycles += dev.TotalCycles
			windows += dev.Windows
			if s := dev.PeakUsage.SRAMBytes(); s > peakSRAM {
				peakSRAM = s
			}
		}
		hostSummary, err := metrics.Summarize(hostCMs)
		if err != nil {
			return nil, err
		}
		devSummary, err := metrics.Summarize(devCMs)
		if err != nil {
			return nil, err
		}
		out.rows = append(out.rows,
			experiments.Table2Row{Version: v, Platform: experiments.PlatformAmulet, Summary: devSummary},
			experiments.Table2Row{Version: v, Platform: experiments.PlatformHost, Summary: hostSummary})
		out.telemetry[v] = experiments.DeviceTelemetry{
			CyclesPerWindow: float64(cycles) / float64(windows),
			PeakSRAMBytes:   peakSRAM,
			ModelConstBytes: 4 * (1 + 3*v.Dim()),
		}
		out.cycles += cycles
		out.devWindows += windows
		if peakSRAM > out.sramPeak {
			out.sramPeak = peakSRAM
		}
	}
	t0 := now()
	t3, err := experiments.Table3(env, nil)
	led.add(span{Name: "experiments.table3", Start: t0, End: now(), Parent: -1, Session: -1})
	if err != nil {
		return nil, err
	}
	out.t3text = t3.Format()
	return out, nil
}
