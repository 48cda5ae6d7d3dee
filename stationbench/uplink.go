package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math/rand"

	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/features"
	"github.com/wiot-security/sift/internal/fleet"
	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/svm"
	"github.com/wiot-security/sift/internal/wiot"
)

// sealed-uplink sizing: 32 wearers per round over 8 trained subjects,
// one at a time, each session a slice of its subject's 120 s recording
// whose length is stratified over [12 s, 120 s] so every round carries
// the same spread of short and long sessions.
const (
	uplinkSubjects = 8
	uplinkTrainSec = 120.0
	uplinkLiveSec  = 120.0
	uplinkMinSec   = 12.0
	uplinkCohort   = 32
	// uplinkAuditSlots is how many sessions an untraced run replays with
	// obs on afterwards, to check no honest frame was rejected.
	uplinkAuditSlots = 4
)

// uplinkVersion is the detector flashed onto each wearer's Amulet.
const uplinkVersion = features.Original

func buildSealedUplink(seed int64) (*streamFixture, error) {
	rng := rand.New(rand.NewSource(seed))
	subjects, c, err := buildCohort(uplinkSubjects, uplinkTrainSec, seed, rng)
	if err != nil {
		return nil, err
	}
	quant := make([]*svm.Quantized, len(subjects))
	live := make([]*physio.Record, len(subjects))
	for i, s := range subjects {
		if quant[i], err = c.dets[i].Quantize(); err != nil {
			return nil, err
		}
		if live[i], err = physio.Generate(s, uplinkLiveSec, physio.DefaultSampleRate, rng.Int63()); err != nil {
			return nil, err
		}
	}
	master := sha256.Sum256(binary.LittleEndian.AppendUint64([]byte("stationbench-master"), uint64(seed)))
	auth := &wiot.AuthProvision{Master: master[:], Alg: wiot.MACHMAC}

	sw := &streamWorkload{name: "sealed-uplink", workers: 1}
	order := rng.Perm(uplinkCohort)
	for j := 0; j < uplinkCohort; j++ {
		subj := j % uplinkSubjects
		full := live[subj]
		frac := (float64(order[j]) + rng.Float64()) / uplinkCohort
		n := int((uplinkMinSec + frac*(uplinkLiveSec-uplinkMinSec)) * full.SampleRate)
		lo := rng.Intn(len(full.ECG) - n + 1)
		rec, err := full.Slice(lo, lo+n)
		if err != nil {
			return nil, err
		}
		from, to := midSessionAttack(n, rng)
		donor := live[(subj+1+rng.Intn(uplinkSubjects-1))%uplinkSubjects]
		sw.specs = append(sw.specs, sessionSpec{
			subject:    subj,
			rec:        rec,
			donor:      donor.ECG,
			attackFrom: from,
			attackTo:   to,
			chanSeed:   rng.Int63(),
			frames:     framesFor(n),
		})
	}
	sw.source = func(p *probe) (wiot.Scenario, error) {
		spec := p.spec
		ch, err := wiot.NewLossy(lossProb, dupProb, spec.chanSeed)
		if err != nil {
			return wiot.Scenario{}, err
		}
		t0 := now()
		dev, err := program.NewDeviceDetector(uplinkVersion, nil, quant[spec.subject])
		t1 := now()
		if err != nil {
			return wiot.Scenario{}, err
		}
		if tr := p.tracer; tr != nil {
			p.flashNs = t1 - t0
			tr.led.add(span{Name: "amulet.flash", Start: t0, End: t1, Parent: -1, Session: int32(p.slot)})
		}
		p.ch, p.det = ch, deviceDetector{dev}
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
	sw.inner = func(ctx context.Context, slot fleet.Slot, sc wiot.Scenario) (wiot.ScenarioResult, error) {
		return wiot.RunScenarioOverTCP(ctx, sc, wiot.NetConfig{
			Seed: sw.specs[slot.Index].chanSeed, Auth: auth,
		})
	}
	sw.round = func(ctx context.Context, src fleet.Source, run fleet.Runner) error {
		_, err := fleet.Run(ctx, fleet.Config{Scenarios: len(sw.specs), Workers: 1, Source: src, Runner: run})
		return err
	}
	sw.init(int(dataset.WindowSec * physio.DefaultSampleRate))

	fx := &streamFixture{sw: sw, cohort: c, tcp: true}
	fx.retime = func(rep *report, kept []keptWindow) error {
		if err := retimePeaks(rep, kept); err != nil {
			return err
		}
		fresh := make([]*program.DeviceDetector, len(subjects))
		for i := range fresh {
			if fresh[i], err = program.NewDeviceDetector(uplinkVersion, nil, quant[i]); err != nil {
				return err
			}
		}
		wins := make([]dataset.Window, len(kept))
		verdicts := make([]bool, len(kept))
		devs := make([]*program.DeviceDetector, len(kept))
		for i, k := range kept {
			wins[i], verdicts[i], devs[i] = k.w, k.verdict, fresh[k.subject]
		}
		return retimeDevice(rep, wins, verdicts, devs)
	}
	// The audit re-runs the first sessions with obs on: the program's own
	// counters must show no rejected honest frame and the verdicts must
	// match the timed phase's.
	fx.audit = func(ctx context.Context, rep *report, tot *streamTotals) error {
		obs.Reset()
		obs.SetEnabled(true)
		defer obs.SetEnabled(false)
		digest, err := uplinkSubsetDigest(ctx, sw, uplinkAuditSlots, sw.inner)
		if err != nil {
			return err
		}
		want, err := uplinkSubsetDigest(ctx, sw, uplinkAuditSlots, nil)
		if err != nil {
			return err
		}
		if digest != want {
			rep.fail("sealed-uplink audit digest %s differs from an in-process replay's %s", digest, want)
		}
		if n := authRejects(); n != 0 {
			rep.fail("%d wiot.auth.reject.* events for an honest cohort", n)
		}
		if h := obsCounter("wiot.auth.handshakes"); h != 2*uplinkAuditSlots {
			rep.fail("audit saw %d auth handshakes for %d sessions, want 2 per session", h, uplinkAuditSlots)
		}
		return nil
	}
	// The traced run's guard: the whole round again, in-process, with the
	// same device programs and models, must give the TCP round's digest.
	fx.replay = func(ctx context.Context, rep *report, tot *streamTotals) error {
		in, err := uplinkSubsetDigest(ctx, sw, len(sw.specs), nil)
		if err != nil {
			return err
		}
		note("in-process replay digest %s, traced TCP round digest %s", in, tot.digest)
		if in != tot.digest {
			rep.fail("sealed-uplink digest over TCP %s differs from the in-process replay's %s", tot.digest, in)
		}
		return nil
	}
	return fx, nil
}

// uplinkSubsetDigest runs slots [0, n) one by one outside the fleet
// engine, through run (nil = the in-process simulation), and digests
// their verdicts exactly as a round's digest is formed.
func uplinkSubsetDigest(ctx context.Context, sw *streamWorkload, n int, run fleet.Runner) (string, error) {
	if run == nil {
		run = func(ctx context.Context, _ fleet.Slot, sc wiot.Scenario) (wiot.ScenarioResult, error) {
			return wiot.RunScenarioContext(ctx, sc)
		}
	}
	h := sha256.New()
	for i := 0; i < n; i++ {
		p := sw.probes[i]
		p.reset(nil)
		sc, err := sw.source(p)
		if err != nil {
			return "", err
		}
		res, err := run(ctx, fleet.Slot{Index: i}, sc)
		if err != nil {
			return "", err
		}
		hashVerdicts(h, i, res.Alerts)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func runSealedUplink(o options) (*report, error) { return runStream(o, buildSealedUplink) }
