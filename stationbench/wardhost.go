package main

import (
	"context"
	"errors"
	"math/rand"

	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/fleet"
	"github.com/wiot-security/sift/internal/fleet/shard"
	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/wiot"
)

// ward-host sizing: a 48-wearer cohort per round over 12 trained subjects,
// each wearer streaming a 120 s session drawn from a pool of 2 recordings
// per subject, through 2 in-process stations with 1 worker each.
const (
	wardSubjects   = 12
	wardTrainSec   = 120.0
	wardPoolPer    = 2
	wardLiveSec    = 120.0
	wardCohort     = 48
	wardStations   = 2
	wardWorkersPer = 1
)

// streamFixture is a built stream workload plus the hooks that differ
// between ward-host and sealed-uplink.
type streamFixture struct {
	sw     *streamWorkload
	cohort *cohort
	// tcp is set when sessions run over TCP, so the wire's obs counters
	// are reported.
	tcp bool
	// retime prices the detector-side stages on the traced phase's kept
	// windows and checks their verdicts.
	retime func(rep *report, kept []keptWindow) error
	// audit runs after an untraced phase (optional).
	audit func(ctx context.Context, rep *report, tot *streamTotals) error
	// replay is the traced run's differential guard (optional).
	replay func(ctx context.Context, rep *report, tot *streamTotals) error
}

func buildWardHost(seed int64) (*streamFixture, error) {
	rng := rand.New(rand.NewSource(seed))
	subjects, c, err := buildCohort(wardSubjects, wardTrainSec, seed, rng)
	if err != nil {
		return nil, err
	}
	pool := make([][]*physio.Record, len(subjects))
	for i, s := range subjects {
		for k := 0; k < wardPoolPer; k++ {
			rec, err := physio.Generate(s, wardLiveSec, physio.DefaultSampleRate, rng.Int63())
			if err != nil {
				return nil, err
			}
			pool[i] = append(pool[i], rec)
		}
	}
	sw := &streamWorkload{name: "ward-host", workers: wardStations * wardWorkersPer}
	for j := 0; j < wardCohort; j++ {
		subj := j % wardSubjects
		rec := pool[subj][rng.Intn(wardPoolPer)]
		donorSubj := (subj + 1 + rng.Intn(wardSubjects-1)) % wardSubjects
		from, to := midSessionAttack(len(rec.ECG), rng)
		sw.specs = append(sw.specs, sessionSpec{
			subject:    subj,
			rec:        rec,
			donor:      pool[donorSubj][rng.Intn(wardPoolPer)].ECG,
			attackFrom: from,
			attackTo:   to,
			chanSeed:   rng.Int63(),
			frames:     framesFor(len(rec.ECG)),
		})
	}
	sw.source = func(p *probe) (wiot.Scenario, error) {
		spec := p.spec
		ch, err := wiot.NewLossy(lossProb, dupProb, spec.chanSeed)
		if err != nil {
			return wiot.Scenario{}, err
		}
		p.ch = ch
		p.det = hostDetector{c.dets[spec.subject]}
		mitm := &wiot.SubstitutionMITM{Donor: spec.donor, ActiveFrom: spec.attackFrom, ActiveTo: spec.attackTo}
		sc := wiot.Scenario{
			Record: spec.rec, Detector: p, Channel: p, Attack: mitm,
			AttackFrom: spec.attackFrom, AttackTo: spec.attackTo,
		}
		if p.tracer != nil {
			p.att = mitm
			sc.Attack = p
		}
		return sc, nil
	}
	sw.inner = func(ctx context.Context, _ fleet.Slot, sc wiot.Scenario) (wiot.ScenarioResult, error) {
		return wiot.RunScenarioContext(ctx, sc)
	}
	sw.round = func(ctx context.Context, src fleet.Source, run fleet.Runner) error {
		res, err := shard.Run(ctx, shard.Config{
			Scenarios: len(sw.specs), Shards: wardStations, Workers: wardWorkersPer,
			Source: src, Runner: run,
		})
		if err != nil {
			return err
		}
		if res.Completed+res.Failed != len(sw.specs) {
			return errors.New("ward-host: shard run skipped slots")
		}
		return nil
	}
	sw.init(int(dataset.WindowSec * physio.DefaultSampleRate))
	fx := &streamFixture{sw: sw, cohort: c}
	fx.retime = func(rep *report, kept []keptWindow) error {
		if err := retimePeaks(rep, kept); err != nil {
			return err
		}
		wins := make([]dataset.Window, len(kept))
		verdicts := make([]bool, len(kept))
		dets := make([]*sift.Detector, len(kept))
		for i, k := range kept {
			wins[i], verdicts[i], dets[i] = k.w, k.verdict, c.dets[k.subject]
		}
		return retimeHost(rep, wins, verdicts, dets)
	}
	return fx, nil
}

func runWardHost(o options) (*report, error) { return runStream(o, buildWardHost) }

// runStream drives either stream workload: set-up (timed, median of
// setupReps builds), one warm-up session, the untraced or traced
// measurement, and the golden check.
func runStream(o options, build func(seed int64) (*streamFixture, error)) (*report, error) {
	ctx := context.Background()
	rep := newReport()
	fx, setupS, err := timeSetup(func() (*streamFixture, error) { return build(o.seed) })
	if err != nil {
		return nil, err
	}
	sw := fx.sw
	// Warm-up: one session through the real runner, outside any phase.
	sw.probes[0].reset(nil)
	sc, err := sw.source(sw.probes[0])
	if err != nil {
		return nil, err
	}
	if _, err := sw.inner(ctx, fleet.Slot{Index: 0}, sc); err != nil {
		return nil, err
	}
	if obs.Enabled() {
		return nil, errors.New("obs is enabled before the untraced phase")
	}

	if !o.trace {
		m := startMeter()
		tot, err := sw.phase(ctx, rep, o.seconds, nil)
		if err != nil {
			return nil, err
		}
		ps := m.end()
		streamEndToEnd(rep, tot, ps, setupS)
		note("%s verdict digest (one round): %s", sw.name, tot.digest)
		if fx.audit != nil {
			if err := fx.audit(ctx, rep, tot); err != nil {
				return nil, err
			}
		}
		rep.Attempted, rep.Failed = tot.sessions, tot.failed
		return rep, streamGolden(ctx, rep, o, build, tot)
	}

	zeroLayers(rep)
	half := o.seconds / 2
	m := startMeter()
	tot0, err := sw.phase(ctx, rep, half, nil)
	if err != nil {
		return nil, err
	}
	ps0 := m.end()
	runtimeMetrics(rep, ps0, tot0.verdicts)

	obs.Reset()
	obs.SetEnabled(true)
	tr := &streamTracer{led: &ledger{}}
	m = startMeter()
	tot1, err := sw.phase(ctx, rep, half, tr)
	ps1 := m.end()
	rejects := authRejects()
	wire := map[string]int64{}
	for _, n := range []string{"wiot.auth.frames", "wiot.sink.retransmits", "wiot.tcp.nacks", "wiot.frame.wireBytes", "wiot.auth.handshakes"} {
		wire[n] = obsCounter(n)
	}
	obs.SetEnabled(false)
	if err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed = tot0.sessions+tot1.sessions, tot0.failed+tot1.failed
	note("untraced half: %d sessions, %d verdicts in %.3f s; traced half: %d sessions, %d verdicts in %.3f s",
		tot0.sessions, tot0.verdicts, ps0.wall.Seconds(), tot1.sessions, tot1.verdicts, ps1.wall.Seconds())
	if tot1.digest != tot0.digest {
		rep.fail("traced phase digest %s differs from the untraced phase's %s", tot1.digest, tot0.digest)
	}
	if rejects != 0 {
		rep.fail("%d wiot.auth.reject.* events for an honest cohort", rejects)
	}

	v1, frames, sessions := float64(tot1.verdicts), float64(tot1.frames), float64(tot1.sessions)
	wlen := float64(sw.probes[0].wlen)
	rep.set("wiot.channel_us_per_frame", "us", float64(tot1.chanNs)/1e3/frames)
	rep.set("wiot.frames_per_verdict", "count", frames/v1)
	rep.set("wiot.concealed_frac", "frac", float64(tot1.concealed)/(2*v1*wlen)) // both sensor streams
	rep.set("wiot.ingest_us_per_verdict", "us", float64(tot1.sessNs-tot1.chanNs-tot1.attNs-tot1.detNs)/1e3/v1)
	if fx.tcp {
		rep.set("wiot.decoded_per_sent", "count", float64(wire["wiot.auth.frames"]+rejects)/frames)
		rep.set("wiot.retransmits_per_frame", "count", float64(wire["wiot.sink.retransmits"])/frames)
		rep.set("wiot.nacks_per_frame", "count", float64(wire["wiot.tcp.nacks"])/frames)
		rep.set("wiot.wire_bytes_per_verdict", "B", float64(wire["wiot.frame.wireBytes"])/v1)
		rep.set("wiot.handshakes_per_session", "count", float64(wire["wiot.auth.handshakes"])/sessions)
	}
	rep.set("wiot.first_verdict_ms", "ms", tot1.first.quantile(0.5)/1e6)
	rep.set("wiot.session_ms_p50", "ms", tot1.session.quantile(0.5)/1e6)
	rep.set("wiot.session_ms_p99", "ms", tot1.session.quantile(0.99)/1e6)
	note("session wall: p50 %.3f ms, p99 %.3f ms (n=%d, %d beyond p99); first verdict p50 %.3f ms (n=%d)",
		tot1.session.quantile(0.5)/1e6, tot1.session.quantile(0.99)/1e6, tot1.session.n, tot1.session.beyond(0.99),
		tot1.first.quantile(0.5)/1e6, tot1.first.n)
	if tot1.flashes > 0 {
		rep.set("amulet.flash_ms_per_device", "ms", float64(tot1.flashNs)/1e6/float64(tot1.flashes))
	}
	rep.set("fleet.idle_frac", "frac", 1-float64(tot1.sessNs)/(float64(sw.workers)*float64(ps1.wall)))
	rep.set("fleet.source_us_per_session", "us", float64(tot1.srcNs)/1e3/sessions)
	rep.set("trace.overhead_frac", "frac", 1-tot1.blocks.verdictRate()/tot0.blocks.verdictRate())
	rep.set("trace.coverage_frac", "frac", float64(tot1.chanNs+tot1.attNs+tot1.detNs)/float64(tot1.sessNs))

	if err := fx.retime(rep, tr.kept); err != nil {
		return nil, err
	}
	if err := trainingLayers(rep, tr.led, fx.cohort, setupS); err != nil {
		return nil, err
	}
	if fx.replay != nil {
		if err := fx.replay(ctx, rep, tot1); err != nil {
			return nil, err
		}
	}
	if err := tr.led.dump(spanDir, sw.name, o.seed); err != nil {
		return nil, err
	}
	return rep, streamGolden(ctx, rep, o, build, tot0)
}

// streamGolden checks one round at the default seed against the
// committed digest: the measured round itself when the run is at the
// default seed, else a fresh default-seed fixture's round (untimed).
func streamGolden(ctx context.Context, rep *report, o options, build func(seed int64) (*streamFixture, error), tot *streamTotals) error {
	if o.seed != defaultSeed {
		fx, err := build(defaultSeed)
		if err != nil {
			return err
		}
		if tot, err = fx.sw.phase(ctx, rep, 0, nil); err != nil {
			return err
		}
	}
	checkGolden(rep, o.workload, tot.digest)
	return nil
}
