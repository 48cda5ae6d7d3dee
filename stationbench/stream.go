package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wiot-security/sift/internal/amulet/program"
	"github.com/wiot-security/sift/internal/dataset"
	"github.com/wiot-security/sift/internal/fleet"
	"github.com/wiot-security/sift/internal/obs"
	"github.com/wiot-security/sift/internal/physio"
	"github.com/wiot-security/sift/internal/sift"
	"github.com/wiot-security/sift/internal/svm"
	"github.com/wiot-security/sift/internal/wiot"
)

// Link and attack model shared by both stream workloads.
const (
	lossProb = 0.02
	dupProb  = 0.01
	// svmIter matches siftlab's default SMO iteration cap.
	svmIter = 150
	// keepWindows caps how many windows of the traced phase are copied for
	// the per-stage re-timing.
	keepWindows = 480
)

// sessionSpec is one wearer's session, fixed in set-up: which recording
// streams, who the attacker substitutes, when, and the link's seed.
type sessionSpec struct {
	subject    int
	rec        *physio.Record
	donor      []float64 // substituted ECG
	attackFrom int       // victim samples, [from, to)
	attackTo   int
	chanSeed   int64
	frames     int // frames per sensor
}

// cohort is the trained part of a stream fixture: one detector per
// subject plus the records it was trained on (the traced run re-trains
// stage by stage and must reproduce the same models).
type cohort struct {
	trainRecs []*physio.Record
	dets      []*sift.Detector
	svmCfg    svm.Config
}

// donorsFor mirrors the paper protocol's donor choice: the next two
// subjects cyclically.
func (c *cohort) donorsFor(i int) []*physio.Record {
	n := len(c.trainRecs)
	return []*physio.Record{c.trainRecs[(i+1)%n], c.trainRecs[(i+2)%n]}
}

// buildCohort synthesizes n subjects with trainSec of training signal each
// and trains their host detectors. The subjects' physiology is the
// default seed's cohort in every run, a fixed ward of wearers; rng, drawn
// from the workload seed, supplies every recording, session and link.
// Fixing who the wearers are keeps runs at different seeds comparable.
func buildCohort(n int, trainSec float64, seed int64, rng *rand.Rand) ([]physio.Subject, *cohort, error) {
	subjects, err := physio.Cohort(n, defaultSeed)
	if err != nil {
		return nil, nil, err
	}
	c := &cohort{svmCfg: svm.Config{Seed: seed, MaxIter: svmIter}}
	for _, s := range subjects {
		rec, err := physio.Generate(s, trainSec, physio.DefaultSampleRate, rng.Int63())
		if err != nil {
			return nil, nil, err
		}
		c.trainRecs = append(c.trainRecs, rec)
	}
	for i := range subjects {
		det, err := sift.TrainForSubject(c.trainRecs[i], c.donorsFor(i), sift.Config{SVM: c.svmCfg})
		if err != nil {
			return nil, nil, fmt.Errorf("train %s: %w", subjects[i].ID, err)
		}
		c.dets = append(c.dets, det)
	}
	return subjects, c, nil
}

// midSessionAttack draws a substitution interval inside the session's
// middle: it starts between 30% and 50% of the way in and lasts 20–30%.
func midSessionAttack(samples int, rng *rand.Rand) (from, to int) {
	from = int(float64(samples) * (0.3 + 0.2*rng.Float64()))
	to = from + int(float64(samples)*(0.2+0.1*rng.Float64()))
	return from, to
}

func framesFor(samples int) int {
	return (samples + wiot.DefaultChunkSize - 1) / wiot.DefaultChunkSize
}

// hostDetector adapts a trained host detector to the station interface.
type hostDetector struct{ d *sift.Detector }

func (h hostDetector) Classify(w dataset.Window) (bool, error) {
	r, err := h.d.Classify(w)
	return r.Altered, err
}

// deviceDetector adapts a flashed Amulet detector to the station interface.
type deviceDetector struct{ d *program.DeviceDetector }

func (h deviceDetector) Classify(w dataset.Window) (bool, error) {
	out, err := h.d.Classify(w)
	return out.Altered, err
}

// sensorIndex maps the two sensors onto 0 (ECG) and 1 (ABP).
func sensorIndex(id wiot.SensorID) int {
	if id == wiot.SensorABP {
		return 1
	}
	return 0
}

// probe wraps one fleet slot's channel, interceptor and detector. The
// channel wrapper stamps each frame's hand-off; the detector wrapper
// turns that into the verdict latency of each window. In a traced phase
// it also times every call into the three layers. One probe serves the
// same slot in every round, so the timed loop allocates nothing for it.
type probe struct {
	slot   int
	spec   *sessionSpec
	tracer *streamTracer // nil when untraced
	wlen   int

	handoff        [2][]atomic.Int64
	firstDelivered [2]atomic.Int64 // seq of the first delivered frame, -1 before
	tally          [2]streamTally  // written by Transmit only
	sent           atomic.Int64

	ch  wiot.ChannelEffect
	att wiot.Interceptor
	det wiot.Detector

	// Written by the detector wrapper under the station's lock.
	lat          []int64
	firstVerdict int64

	start, end int64
	res        wiot.ScenarioResult
	err        error

	// Traced-phase aggregates.
	sessSpan                   int32
	chanBusy, chanFirst        int64
	chanLast                   int64
	chanCalls                  int32
	attBusy, attFirst, attLast int64
	attCalls                   int32
	detBusy                    int64
	srcNs, flashNs             int64
}

func newProbe(slot int, spec *sessionSpec, wlen int) *probe {
	p := &probe{slot: slot, spec: spec, wlen: wlen}
	for s := range p.handoff {
		p.handoff[s] = make([]atomic.Int64, spec.frames)
	}
	p.lat = make([]int64, 0, spec.frames*wiot.DefaultChunkSize/wlen+1)
	return p
}

func (p *probe) reset(tr *streamTracer) {
	p.tracer = tr
	for s := range p.tally {
		p.firstDelivered[s].Store(-1)
		p.tally[s] = streamTally{next: -1}
	}
	p.sent.Store(0)
	p.lat = p.lat[:0]
	p.firstVerdict = 0
	p.res, p.err = wiot.ScenarioResult{}, nil
	p.sessSpan = -1
	p.chanBusy, p.chanFirst, p.chanLast, p.chanCalls = 0, 0, 0, 0
	p.attBusy, p.attFirst, p.attLast, p.attCalls = 0, 0, 0, 0
	p.detBusy, p.srcNs, p.flashNs = 0, 0, 0
}

// Transmit implements wiot.ChannelEffect around the real lossy link.
func (p *probe) Transmit(f wiot.Frame) []wiot.Frame {
	t := now()
	s := sensorIndex(f.Sensor)
	if int(f.Seq) < len(p.handoff[s]) {
		p.handoff[s][f.Seq].Store(t)
	}
	p.sent.Add(1)
	out := p.ch.Transmit(f)
	if p.tracer != nil {
		t1 := now()
		if p.chanCalls == 0 {
			p.chanFirst = t
		}
		p.chanLast = t1
		p.chanBusy += t1 - t
		p.chanCalls++
	}
	if len(out) > 0 {
		if p.tally[s].next < 0 {
			p.firstDelivered[s].Store(int64(f.Seq))
		}
		p.tally[s].deliver(int64(f.Seq), len(f.Samples))
	}
	return out
}

// streamTally follows one sensor's delivered frames to the number of
// samples the station must assemble: from the first delivered frame (the
// stream's origin; the station cannot know of frames lost before it) to
// the end of the last delivered one (a lost last frame is never
// revealed), with each gap of k lost frames standing for the k×chunk
// samples those frames held. Every frame but a stream's last is full, so
// that is what the lost frames carried.
type streamTally struct {
	next  int64 // next expected seq; -1 before the first delivery
	reach int   // samples from the origin to the end of the last delivery
}

func (t *streamTally) deliver(seq int64, n int) {
	if t.next >= 0 {
		t.reach += int(seq-t.next) * wiot.DefaultChunkSize
	}
	t.reach += n
	t.next = seq + 1
}

// Intercept implements wiot.Interceptor; it is installed only in traced
// phases, to time the man-in-the-middle.
func (p *probe) Intercept(f wiot.Frame) wiot.Frame {
	t := now()
	out := p.att.Intercept(f)
	t1 := now()
	if p.attCalls == 0 {
		p.attFirst = t
	}
	p.attLast = t1
	p.attBusy += t1 - t
	p.attCalls++
	return out
}

// Classify implements wiot.Detector. The latency runs from the later
// hand-off of the two frames carrying the window's last sample (a lost
// frame counts from its original hand-off) to the verdict's return. The
// station counts a sensor's samples from the first frame it received, so
// the frame holding the window's last sample is offset by that origin.
func (p *probe) Classify(w dataset.Window) (bool, error) {
	t0 := now()
	v, err := p.det.Classify(w)
	t1 := now()
	last := ((w.Index+1)*p.wlen - 1) / wiot.DefaultChunkSize
	var h int64
	for s := range p.handoff {
		if seq := last + int(p.firstDelivered[s].Load()); seq < len(p.handoff[s]) {
			h = max(h, p.handoff[s][seq].Load())
		}
	}
	p.lat = append(p.lat, t1-h)
	if p.firstVerdict == 0 {
		p.firstVerdict = t1
	}
	if tr := p.tracer; tr != nil {
		p.detBusy += t1 - t0
		tr.led.add(span{Name: "wiot.detector", Start: t0, End: t1, Parent: p.sessSpan, Session: int32(p.slot)})
		if err == nil {
			tr.keep(w, v, p)
		}
	}
	return v, err
}

// streamTracer holds a traced phase's ledger and the window copies the
// stage re-timing replays.
type streamTracer struct {
	led  *ledger
	mu   sync.Mutex
	kept []keptWindow
}

type keptWindow struct {
	w       dataset.Window
	verdict bool
	subject int
}

func (t *streamTracer) keep(w dataset.Window, verdict bool, p *probe) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.kept) >= keepWindows {
		return
	}
	c := w
	c.ECG = append([]float64(nil), w.ECG...)
	c.ABP = append([]float64(nil), w.ABP...)
	c.RPeaks = append([]int(nil), w.RPeaks...)
	c.SysPeaks = append([]int(nil), w.SysPeaks...)
	c.Pairs = append([][2]int(nil), w.Pairs...)
	t.kept = append(t.kept, keptWindow{w: c, verdict: verdict, subject: p.spec.subject})
}

// streamTotals accumulates one phase's sessions.
type streamTotals struct {
	rounds, sessions, failed, verdicts, correctVerdicts int
	headShort, tailShort                                int
	frames, concealed                                   int64
	lat, session, first                                 hist
	sessNs, chanNs, attNs, detNs, srcNs, flashNs        int64
	flashes                                             int
	digest                                              string // first round's
	blocks                                              *blocker
}

// streamWorkload is what differs between ward-host and sealed-uplink:
// how one round of sessions is launched.
type streamWorkload struct {
	name   string
	specs  []sessionSpec
	probes []*probe
	// source builds slot i's scenario around its probe.
	source func(p *probe) (wiot.Scenario, error)
	// round runs every slot once through the fleet layer with the given
	// Source and Runner.
	round func(ctx context.Context, src fleet.Source, run fleet.Runner) error
	// inner is the real scenario runner the benchmark's Runner wraps.
	inner fleet.Runner
	// workers is the number of concurrent sessions (for fleet.idle_frac).
	workers int
}

func (sw *streamWorkload) init(wlen int) {
	sw.probes = make([]*probe, len(sw.specs))
	for i := range sw.specs {
		sw.probes[i] = newProbe(i, &sw.specs[i], wlen)
	}
}

func (sw *streamWorkload) fleetSource(tr *streamTracer) fleet.Source {
	return func(index int, _ int64) (wiot.Scenario, error) {
		p := sw.probes[index]
		t0 := now()
		sc, err := sw.source(p)
		if tr != nil {
			t1 := now()
			p.srcNs = t1 - t0
			tr.led.add(span{Name: "fleet.source", Start: t0, End: t1, Parent: -1, Session: int32(index)})
		}
		return sc, err
	}
}

func (sw *streamWorkload) fleetRunner(tr *streamTracer) fleet.Runner {
	return func(ctx context.Context, slot fleet.Slot, sc wiot.Scenario) (wiot.ScenarioResult, error) {
		p := sw.probes[slot.Index]
		p.start = now()
		if tr != nil {
			p.sessSpan = tr.led.add(span{Name: "fleet.session", Start: p.start, Parent: -1, Session: int32(slot.Index)})
		}
		p.res, p.err = sw.inner(ctx, slot, sc)
		p.end = now()
		if tr != nil {
			tr.led.finish(p.sessSpan, p.end)
			if p.chanCalls > 0 {
				tr.led.add(span{Name: "wiot.channel", Start: p.chanFirst, End: p.chanLast, Parent: p.sessSpan,
					Session: int32(slot.Index), Busy: p.chanBusy, Calls: p.chanCalls})
			}
			if p.attCalls > 0 {
				tr.led.add(span{Name: "wiot.attack", Start: p.attFirst, End: p.attLast, Parent: p.sessSpan,
					Session: int32(slot.Index), Busy: p.attBusy, Calls: p.attCalls})
			}
		}
		return p.res, p.err
	}
}

// phase runs whole rounds until the given seconds have elapsed and the
// last block has closed, and checks every session's output as its round
// completes. With seconds = 0 it runs exactly one round.
func (sw *streamWorkload) phase(ctx context.Context, rep *report, seconds float64, tr *streamTracer) (*streamTotals, error) {
	tot := &streamTotals{blocks: newBlocker()}
	src, run := sw.fleetSource(tr), sw.fleetRunner(tr)
	h := sha256.New()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	// Whole rounds run until the deadline has passed and the last block
	// has closed.
	for tot.rounds == 0 || (seconds > 0 && (len(tot.blocks.closed) == 0 || time.Now().Before(deadline) || tot.blocks.verdicts > 0)) {
		for _, p := range sw.probes {
			p.reset(tr)
		}
		if err := sw.round(ctx, src, run); err != nil {
			return nil, err
		}
		h.Reset()
		for _, p := range sw.probes {
			sw.collect(rep, tot, p, h)
		}
		d := hex.EncodeToString(h.Sum(nil))
		if tot.rounds == 0 {
			tot.digest = d
		} else if d != tot.digest {
			rep.fail("%s round %d verdict digest %s differs from round 0's %s", sw.name, tot.rounds, d, tot.digest)
		}
		tot.rounds++
		tot.blocks.closeIfDue(false)
	}
	return tot, nil
}

// collect checks one finished session and folds it into the totals and
// the round digest.
func (sw *streamWorkload) collect(rep *report, tot *streamTotals, p *probe, h hash.Hash) {
	tot.sessions++
	if p.err != nil {
		tot.failed++
		rep.fail("%s session %d: %v", sw.name, p.slot, p.err)
		return
	}
	res := &p.res
	// The station forms windows from the samples it must assemble per
	// sensor (see streamTally), so ⌊samples/wlen⌋ is taken over those. Two
	// ways they fall short of the recording are allowed and counted: a
	// lost first frame moves the origin, and a lost last frame leaves the
	// final window unformed. Any other shortfall fails the session.
	reach := len(p.spec.rec.ECG)
	for s := range p.tally {
		t := p.tally[s]
		if t.next < 0 {
			reach = 0
			continue
		}
		if p.firstDelivered[s].Load() > 0 {
			tot.headShort++
		}
		if t.next < int64(p.spec.frames) {
			tot.tailShort++
		}
		reach = min(reach, t.reach)
	}
	ok := true
	want := reach / p.wlen
	if len(res.Alerts) != want || res.Windows != want {
		ok = false
		rep.fail("%s session %d: %d verdicts, want ⌊%d/%d⌋ = %d", sw.name, p.slot, len(res.Alerts), reach, p.wlen, want)
	}
	if len(p.lat) != len(res.Alerts) {
		ok = false
		rep.fail("%s session %d: %d detector calls for %d verdicts", sw.name, p.slot, len(p.lat), len(res.Alerts))
	}
	for i, a := range res.Alerts {
		if a.WindowIndex != i {
			ok = false
			rep.fail("%s session %d: verdict %d carries window index %d", sw.name, p.slot, i, a.WindowIndex)
			break
		}
	}
	if !ok {
		tot.failed++
	}
	hashVerdicts(h, p.slot, res.Alerts)
	tot.verdicts += len(res.Alerts)
	tot.blocks.verdicts += len(res.Alerts)
	tot.correctVerdicts += res.TruePos + res.TrueNeg
	tot.frames += p.sent.Load()
	tot.concealed += int64(res.Concealed)
	for _, l := range p.lat {
		tot.lat.add(l)
		tot.blocks.lat.add(l)
	}
	tot.session.add(p.end - p.start)
	if p.firstVerdict > 0 {
		tot.first.add(p.firstVerdict - p.start)
	}
	tot.sessNs += p.end - p.start
	tot.chanNs += p.chanBusy
	tot.attNs += p.attBusy
	tot.detNs += p.detBusy
	tot.srcNs += p.srcNs
	if p.flashNs > 0 {
		tot.flashNs += p.flashNs
		tot.flashes++
	}
}

// hashVerdicts adds one session's verdicts to a digest in canonical
// form: little-endian u32 session, window index and verdict (0/1).
func hashVerdicts(h hash.Hash, slot int, alerts []wiot.Alert) {
	var buf [12]byte
	for _, a := range alerts {
		binary.LittleEndian.PutUint32(buf[0:], uint32(slot))
		binary.LittleEndian.PutUint32(buf[4:], uint32(a.WindowIndex))
		buf[8], buf[9], buf[10], buf[11] = 0, 0, 0, 0
		if a.Altered {
			buf[8] = 1
		}
		h.Write(buf[:])
	}
}

// checkGolden compares a first round's digest, at the default seed, with
// the committed one.
func checkGolden(rep *report, workload string, digest string) {
	want, err := goldenDigest(workload)
	if err != nil {
		rep.fail("%v", err)
		return
	}
	note("%s verdict digest at seed %d: %s (golden %s)", workload, defaultSeed, digest, want)
	if digest != want {
		rep.fail("%s digest %s at seed %d, committed golden is %s", workload, digest, defaultSeed, want)
	}
}

// authRejects sums the program's wiot.auth.reject.* counters (live only
// while obs is enabled).
func authRejects() int64 {
	var n int64
	for _, c := range obs.TakeSnapshot().Counters {
		if len(c.Name) > len("wiot.auth.reject.") && c.Name[:len("wiot.auth.reject.")] == "wiot.auth.reject." {
			n += c.Value
		}
	}
	return n
}

func obsCounter(name string) int64 {
	for _, c := range obs.TakeSnapshot().Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// streamEndToEnd reports a stream phase's end-to-end metrics.
func streamEndToEnd(rep *report, tot *streamTotals, ps phaseStats, setupS float64) {
	endToEnd(rep, ps, tot.blocks, tot.verdicts, setupS)
	blockLatency(rep, tot.blocks, &tot.lat)
	rep.set("success_frac", "frac", float64(tot.sessions-tot.failed)/float64(tot.sessions))
	rep.set("window_acc", "frac", float64(tot.correctVerdicts)/float64(tot.verdicts))
	note("sessions: %d attempted, %d succeeded, %d failed in %d rounds; per round, sensor streams with a lost first frame: %d, a lost last frame: %d",
		tot.sessions, tot.sessions-tot.failed, tot.failed, tot.rounds, tot.headShort/tot.rounds, tot.tailShort/tot.rounds)
}
